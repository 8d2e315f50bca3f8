(* The service-mix workload: a real `dbdsc --serve SOCK --frontdoor`
   child process with a fresh store and [service_workers] dispatchers
   and broker workers, driven from this process over [conns] connections
   (connection 0 speaks the text framing, connection 1 the binary one).
   perfbench/run.py keeps this process, the server and the calibration
   kernel's helper on one core, so the server gets one dispatcher and one
   broker worker: requests hand work from thread to thread, and on a
   virtual machine a thread woken on another core waits for the host to
   run that core, so over two cores the latency followed the host's load
   more than the server.

   The traffic comes in whole rounds.  For every function of the corpus
   programs (after inlining, as `dbdsc --connect` sends them) a round
   asks for one cold compile under dbds and one under off (store misses)
   and [warm_repeats] warm repeats of each (store hits, sent [warm_gap],
   2 [warm_gap], ... requests after the cold twin); every
   [coalesce_every]-th function's cold dbds request also gets an
   identical copy, the next request on the next connection, which the
   broker would coalesce with the first if both were in it together;
   with one dispatcher they never are, and the store answers the copy
   (the in-process broker replay of the traced run does coalesce).
   These shares are chosen, not taken from a trace.  A round's requests
   rename their function to
   "f__p<program>r<round><d|o>": a digest the store has not seen, over
   the same IR, so every round carries the same compile work and a reply
   names the request it answers.  The seed orders a round's requests;
   which requests are copied and each request's lane follow from what it
   asks for alone, so every round holds the same requests whatever the
   seed.

   Rounds come in pairs.  The first of a pair is a closed loop under
   load: each connection keeps [window] requests in flight, sending the
   next as soon as a reply frees a place, which gives compile_per_s and
   the tail latency (req_ms_p99).  The second sends one request at a
   time, each when the one before it has been answered, which gives the
   median latency a caller sees from send to reply with nothing queued
   ahead of it (req_ms_p50): under load the median is mostly the wait
   behind other requests, and its spread over runs was three times that
   of the lone request's.  The traced run sends the same traffic the
   same way. *)

open Util

let window = 2
let warm_gap = 24
let warm_repeats = 2
let coalesce_every = 8

(* ---- requests ---------------------------------------------------------- *)

type fn_ref = { idx : int; prog : int; fn : string; ir : string }
(** [idx]: position in the pool *)

type request = {
  rq_fn : fn_ref;
  rq_dbds : bool;  (** dbds, or off *)
  rq_round : int;
  rq_name : string;  (** the function's name on the wire *)
  rq_ir : string;  (** its IR, renamed *)
  rq_lane : string;
  rq_conn : int;
  rq_slot : int;  (** position in the round; a coalesced pair shares it *)
}

let config rq = if rq.rq_dbds then Dbds.Config.dbds else Dbds.Config.off

type pool = {
  progs : (Workloads.Suite.benchmark * Ir.Program.t) array;
      (** corpus program, and its inlined IR *)
  fns : fn_ref array;
}

let make_pool () =
  let progs =
    Array.of_list
      (List.map
         (fun b ->
           let p = Workloads.Suite.compile b in
           ignore (Opt.Inline.inline_program (Opt.Phase.create ~program:p ()) p);
           (b, p))
         (Aot.corpus_programs ()))
  in
  let fns =
    Array.to_list progs
    |> List.mapi (fun i (_, p) ->
           List.map
             (fun fn ->
               let g = Option.get (Ir.Program.find_function p fn) in
               { idx = 0; prog = i; fn; ir = Ir.Printer.graph_to_string g })
             (Ir.Program.function_names p))
    |> List.concat
    |> List.mapi (fun idx f -> { f with idx })
    |> Array.of_list
  in
  { progs; fns }

(* Printed IR starts with "fn NAME(". *)
let rename ir ~from ~into =
  let head = "fn " ^ from ^ "(" in
  let n = String.length head in
  if String.length ir < n || String.sub ir 0 n <> head then
    invalid_arg ("rename: " ^ from);
  "fn " ^ into ^ "(" ^ String.sub ir n (String.length ir - n)

let name_of_ir ir =
  if String.length ir > 3 && String.sub ir 0 3 = "fn " then
    Option.map (fun i -> String.sub ir 3 (i - 3)) (String.index_opt ir '(')
  else None

let conns = 2

(* As many dispatchers and broker workers as cores to run on. *)
let service_workers () = nproc ()

(* One round's requests in the order they are sent. *)
let round_schedule pool ~seed ~round =
  let rng = Random.State.make [| seed; round; 41 |] in
  let colds =
    Array.to_list pool.fns
    |> List.concat_map (fun f -> [ (f, true); (f, false) ])
    |> List.map (fun x -> (Random.State.bits rng, x))
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let out = ref [] and slot = ref 0 and conn = ref 0 in
  (* Requests take the connections in turn, so a copy goes out on the
     next connection right after its original.  The [k]-th request for a
     digest (0: the cold one and its copy, 1.. the warm repeats) rides
     the lane that alternates with [k], a function's dbds and off
     requests starting on opposite lanes. *)
  let emit ?(copies = 1) ~k (f, dbds) =
    let name =
      Printf.sprintf "%s__p%dr%d%s" f.fn f.prog round (if dbds then "d" else "o")
    in
    let ir = rename f.ir ~from:f.fn ~into:name in
    let lane = (f.idx + k + if dbds then 0 else 1) mod 2 in
    for _ = 1 to copies do
      out :=
        {
          rq_fn = f;
          rq_dbds = dbds;
          rq_round = round;
          rq_name = name;
          rq_ir = ir;
          rq_lane = (if lane = 0 then "interactive" else "batch");
          rq_conn = !conn;
          rq_slot = !slot;
        }
        :: !out;
      conn := (!conn + 1) mod conns
    done;
    incr slot
  in
  let n = Array.length colds in
  for i = 0 to n + (warm_repeats * warm_gap) - 1 do
    (if i < n then
       let f, dbds = colds.(i) in
       emit ~k:0
         ~copies:(if dbds && f.idx mod coalesce_every = 0 then 2 else 1)
         (f, dbds));
    for k = 1 to warm_repeats do
      let j = i - (k * warm_gap) in
      if j >= 0 && j < n then emit ~k colds.(j)
    done
  done;
  List.rev !out

(* Each digest of a round once: its cold requests. *)
let distinct reqs =
  List.sort_uniq
    (fun a b -> compare (a.rq_fn.prog, a.rq_name) (b.rq_fn.prog, b.rq_name))
    reqs

(* ---- the server ------------------------------------------------------------ *)

type server = { pid : int; sock : string }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let workdir () =
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let w = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ()) in
  rm_rf w;
  Sys.mkdir w 0o755;
  w

let live : server list ref = ref []

(* Never leave a server behind, whatever ended the run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
        !live)

let start_server ~dbdsc ~dir ~tag =
  if not (Sys.file_exists dbdsc) then failwith ("no compiler binary at " ^ dbdsc);
  let sock = Printf.sprintf "%s/s%d.sock" dir tag in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process dbdsc
      [| dbdsc; "--serve"; sock; "--frontdoor";
         "--cache-dir"; Printf.sprintf "%s/store%d" dir tag;
         "--cache-capacity"; "1073741824";
         "--service-workers"; string_of_int (service_workers ());
         "--service-queue-limit"; "4096";
         "--tenant-rate"; "1000000"; "--tenant-burst"; "1000000" |]
      null null null
  in
  Unix.close null;
  let s = { pid; sock } in
  live := s :: !live;
  s

(* A raw connection, so requests can pipeline; the framing is switched by
   the same hello a client sends. *)
type conn = { c : Service.Env.conn; binary : bool }

let write cn m =
  if cn.binary then Service.Protocol.write_conn_binary cn.c m
  else Service.Protocol.write_conn cn.c m

let read cn =
  if cn.binary then Service.Protocol.read_conn_binary cn.c
  else Service.Protocol.read_conn cn.c

let roundtrip cn m =
  write cn m;
  read cn

let connect srv i =
  let deadline = now () +. 20. in
  let rec attempt () =
    match Service.Env.real.Service.Env.connect srv.sock with
    | c -> c
    | exception Service.Env.Net _ when now () < deadline ->
        (* A fine poll: the wait for a server just started is part of
           setup_s, and a coarse one would round it up. *)
        Unix.sleepf 0.001;
        attempt ()
  in
  let c = attempt () in
  let binary = i > 0 in
  let hello =
    {
      Service.Protocol.verb = "hello";
      fields =
        ("tenant", "perfbench")
        :: (if binary then [ ("framing", "binary") ] else []);
    }
  in
  match roundtrip { c; binary = false } hello with
  | Ok m
    when Service.Protocol.field m "status" = Some "ok"
         && ((not binary) || Service.Protocol.field m "framing" = Some "binary")
    ->
      { c; binary }
  | _ -> failwith "hello refused"

let stop_server srv cs =
  (match cs with
  | cn :: _ ->
      ignore (roundtrip cn { Service.Protocol.verb = "shutdown"; fields = [] })
  | [] -> ());
  List.iter (fun cn -> cn.c.Service.Env.close_conn ()) cs;
  ignore (Unix.waitpid [] srv.pid);
  live := List.filter (fun x -> x.pid <> srv.pid) !live

(* ---- sending ------------------------------------------------------------------ *)

type reply = {
  r_req : request;
  r_sent : float;
  r_done : float;
  r_outcome : (Service.Broker.outcome, string) result;
}

let compile_msg rq =
  Service.Client.compile_msg ~lane:rq.rq_lane ~config:(config rq)
    ~fn:rq.rq_name ~ir:rq.rq_ir ()

let outcome_of = function
  | Ok m -> Service.Protocol.outcome_of_reply m
  | Error e -> Error e

let per_conn cs f =
  let out = Array.make (Array.length cs) [] in
  let ths =
    Array.mapi (fun i _ -> Thread.create (fun () -> out.(i) <- f i) ()) cs
  in
  Array.iter Thread.join ths;
  List.concat (Array.to_list out)

(* Per connection, a sender writes requests and a reader takes the
   replies as they come; a reply names its function, which identifies
   the request (the two of a coalesced pair are identical).  The sender
   keeps [window] requests in flight, sending the next as soon as a reply
   frees a place: a closed loop of [window] clients per connection. *)
let send cs reqs =
  per_conn cs (fun i ->
      let mine = List.filter (fun rq -> rq.rq_conn = i) reqs in
      let lock = Mutex.create () and freed = Condition.create () in
      let pending = Hashtbl.create 64 and order = Queue.create () in
      let in_flight = ref 0 in
      let sender () =
        List.iter
          (fun rq ->
            Mutex.protect lock (fun () ->
                while !in_flight >= window do
                  Condition.wait freed lock
                done;
                incr in_flight;
                Hashtbl.add pending rq.rq_name (rq, now ());
                Queue.push rq.rq_name order);
            write cs.(i) (compile_msg rq))
          mine
      in
      let th = Thread.create sender () in
      let take name =
        Mutex.protect lock (fun () ->
            let name =
              match name with
              | Some n when Hashtbl.mem pending n -> n
              | _ ->
                  (* Nothing to go by: the oldest request still open. *)
                  let rec oldest () =
                    let n = Queue.pop order in
                    if Hashtbl.mem pending n then n else oldest ()
                  in
                  oldest ()
            in
            let v = Hashtbl.find pending name in
            Hashtbl.remove pending name;
            decr in_flight;
            Condition.signal freed;
            v)
      in
      let replies =
        List.map
          (fun _ ->
            let m = read cs.(i) in
            let fin = now () in
            let o = outcome_of m in
            let name =
              match o with
              | Ok (Service.Broker.Done { ir; _ }) -> name_of_ir ir
              | _ -> None
            in
            let rq, sent = take name in
            { r_req = rq; r_sent = sent; r_done = fin; r_outcome = o })
          mine
      in
      Thread.join th;
      replies)

(* One request at a time, each on the connection the schedule gives it. *)
let send_serial cs reqs =
  List.map
    (fun rq ->
      let cn = cs.(rq.rq_conn) in
      let sent = now () in
      write cn (compile_msg rq);
      let m = read cn in
      { r_req = rq; r_sent = sent; r_done = now (); r_outcome = outcome_of m })
    reqs

(* What the loop measured; raw and calibrated, in seconds or per
   second. *)
type phase = {
  replies : reply list;  (** of every round *)
  rounds : int;
  p50_raw : float;  (** median latency, send to reply, one at a time *)
  p50_cal : float;
  p99_raw : float;
      (** under load: each round's 99th percentile of the latency, median
          over the rounds *)
  p99_cal : float;
  rate_raw : float;  (** requests per second under load *)
  rate_cal : float;
}

(* Rounds are sent in segments of [segment_slots] slots.  Between two
   segments, with nothing in flight, the kernel runs three times; each
   segment is calibrated by the runs around it ([Util.stretch_factor])
   among the segments sent the same way. *)
let segment_slots = 24

let segments reqs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun rq ->
      let k = rq.rq_slot / segment_slots in
      Hashtbl.replace tbl k
        (rq :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    reqs;
  List.init (Hashtbl.length tbl) (fun k -> List.rev (Hashtbl.find tbl k))

(* Segments sent one way, and the kernel runs around them. *)
type track = {
  mutable bounds : float list list;  (** kernel runs at each boundary, newest first *)
  mutable segs : (reply list * float) list;  (** replies and duration, newest first *)
}

let new_track () = { bounds = [ List.init 3 (fun _ -> kernel ()) ]; segs = [] }

let send_round tr sender reqs =
  List.iter
    (fun seg ->
      tr.segs <- time (fun () -> sender seg) :: tr.segs;
      tr.bounds <- List.init 3 (fun _ -> kernel ()) :: tr.bounds)
    (segments reqs)

(* Each segment's replies with their calibration factor, in order. *)
let calibrated tr =
  let bounds = Array.of_list (List.rev tr.bounds) in
  List.mapi
    (fun i seg -> (seg, stretch_factor ~jobs:1 bounds ~stretch:i))
    (List.rev tr.segs)

(* Whole pairs of rounds, while the next pair is expected to end in
   time; at least one. *)
let run_rounds pool cs ~seed ~seconds =
  let deadline = now () +. seconds in
  let load = new_track () and serial = new_track () in
  let rec go round =
    let t0 = now () in
    send_round load (send cs) (round_schedule pool ~seed ~round);
    send_round serial (send_serial cs) (round_schedule pool ~seed ~round:(round + 1));
    let d = now () -. t0 in
    if now () +. d > deadline then round + 2 else go (round + 2)
  in
  let rounds = go 0 in
  let load = calibrated load and serial = calibrated serial in
  let lat r = r.r_done -. r.r_sent in
  let lats calibrate segs =
    List.concat_map
      (fun ((rs, _), k) ->
        List.map (fun r -> (r.r_req.rq_round, lat r *. if calibrate then k else 1.)) rs)
      segs
  in
  (* A round's tail holds its few largest compiles; a longer compile that
     a collection in the server happened to hit moves the tail of one
     round, not the median over them. *)
  let round_tail calibrate =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (r, x) ->
        Hashtbl.replace tbl r (x :: Option.value ~default:[] (Hashtbl.find_opt tbl r)))
      (lats calibrate load);
    median (Hashtbl.fold (fun _ xs acc -> quantile xs 0.99 :: acc) tbl [])
  in
  let n = float_of_int (List.fold_left (fun a ((rs, _), _) -> a + List.length rs) 0 load) in
  let sum f = List.fold_left (fun a ((_, d), k) -> a +. f d k) 0. load in
  {
    replies = List.concat_map (fun ((rs, _), _) -> rs) (load @ serial);
    rounds;
    p50_raw = median (List.map snd (lats false serial));
    p50_cal = median (List.map snd (lats true serial));
    p99_raw = round_tail false;
    p99_cal = round_tail true;
    rate_raw = n /. sum (fun d _ -> d);
    rate_cal = n /. sum (fun d k -> d *. k);
  }

(* The server's own counts of the loop ([Broker.stats] behind the stats
   verb's counts field), by name. *)
let server_counts cn =
  match roundtrip cn { Service.Protocol.verb = "stats"; fields = [] } with
  | Ok m ->
      List.filter_map
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char ' ' (Service.Protocol.field_or m "counts" ""))
  | Error e -> failwith ("stats: " ^ e)

(* ---- checks ------------------------------------------------------------------- *)

type check = {
  errors : string list;
  failed : int;
  cycles_ratio : float list;  (** dbds / off, per program *)
  size_ratio : float list;
  round_work : int;  (** work units of one round's compiles *)
}

(* Every reply is [Done]; all replies for one digest are byte-identical,
   so a warm or coalesced reply equals its cold twin; every distinct
   reply verifies and, placed back into its program with the rest of its
   round's replies, interprets to the result of the frontend's IR. *)
let check pool replies =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let failed = ref 0 in
  let by_digest = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let rq = r.r_req in
      match r.r_outcome with
      | Ok (Service.Broker.Done { ir; work; _ }) -> (
          let key = (rq.rq_fn.prog, rq.rq_name) in
          match Hashtbl.find_opt by_digest key with
          | None -> Hashtbl.replace by_digest key (rq, ir, work)
          | Some (_, ir', work') ->
              if ir <> ir' || work <> work' then
                err "%s: replies for one digest differ" rq.rq_name)
      | Ok o ->
          incr failed;
          err "%s: %s" rq.rq_name (Service.Broker.outcome_label o)
      | Error e ->
          incr failed;
          err "%s: %s" rq.rq_name e)
    replies;
  let variants = Hashtbl.create 256 and round_work = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (rq, ir, work) ->
      let key = (rq.rq_fn.prog, rq.rq_dbds, rq.rq_round) in
      Hashtbl.replace variants key
        ((rq.rq_fn.fn, rename ir ~from:rq.rq_name ~into:rq.rq_fn.fn)
        :: Option.value ~default:[] (Hashtbl.find_opt variants key));
      Hashtbl.replace round_work rq.rq_round
        (work + Option.value ~default:0 (Hashtbl.find_opt round_work rq.rq_round)))
    by_digest;
  (* Rounds reply alike, so most variants repeat: interpret each once. *)
  let seen = Hashtbl.create 256 and measured = Hashtbl.create 64 in
  let expected = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (prog, dbds, _) fns ->
      let fns = List.sort compare fns in
      if not (Hashtbl.mem seen (prog, dbds, fns)) then begin
        Hashtbl.replace seen (prog, dbds, fns) ();
        let b, inlined = pool.progs.(prog) in
        let name = b.Workloads.Suite.name in
        let p = Ir.Program.copy inlined in
        let size = ref 0 in
        List.iter
          (fun (fn, ir) ->
            let g = Ir.Parse.parse_graph ir in
            (match Ir.Verifier.verify_result g with
            | Ok () -> ()
            | Error e -> err "%s/%s: verifier: %s" name fn e);
            size := !size + Costmodel.Estimate.graph_size g;
            Ir.Program.add_function p g)
          fns;
        let want =
          match Hashtbl.find_opt expected prog with
          | Some w -> w
          | None ->
              let w = fst (Aot.run_prog (Workloads.Suite.compile b) b.args) in
              Hashtbl.replace expected prog w;
              w
        in
        let got, cycles = Aot.run_prog p b.args in
        if got <> want then
          err "%s (%s replies): got %s, want %s" name
            (if dbds then "dbds" else "off")
            got want;
        Hashtbl.replace measured (prog, dbds) (cycles, !size)
      end)
    variants;
  let ratios =
    List.filter_map
      (fun i ->
        match
          (Hashtbl.find_opt measured (i, true), Hashtbl.find_opt measured (i, false))
        with
        | Some (cd, sd), Some (co, so) ->
            Some (cd /. co, float_of_int sd /. float_of_int so)
        | _ -> None)
      (List.init (Array.length pool.progs) Fun.id)
  in
  let works = Hashtbl.fold (fun _ w acc -> w :: acc) round_work [] in
  if List.length (List.sort_uniq compare works) > 1 then
    err "compile work differs between rounds";
  {
    errors = List.rev !errors;
    failed = !failed;
    cycles_ratio = List.map fst ratios;
    size_ratio = List.map snd ratios;
    round_work = (match works with w :: _ -> w | [] -> 0);
  }

(* ---- the workload ---------------------------------------------------------------- *)

(* Pool generation and parsing, server start (which opens the store),
   connections and their hellos; [setup_reps] times, the last server
   kept.  The median repetition is calibrated by the median of three
   kernel runs before each repetition and after the last. *)
let setup_reps = 9

let setup ~dbdsc ~dir =
  let ks = ref [] in
  let calibrate () = ks := List.init 3 (fun _ -> kernel ()) @ !ks in
  let once tag =
    calibrate ();
    time (fun () ->
        let pool = make_pool () in
        let srv = start_server ~dbdsc ~dir ~tag in
        (pool, srv, Array.init conns (connect srv)))
  in
  let runs = List.init setup_reps once in
  calibrate ();
  List.iteri
    (fun i ((_, srv, cs), _) ->
      if i < setup_reps - 1 then stop_server srv (Array.to_list cs))
    runs;
  let (pool, srv, cs), _ = List.nth runs (setup_reps - 1) in
  let raw = median (List.map snd runs) in
  (pool, srv, cs, raw, raw *. factor !ks)

(* ---- in-process replays -------------------------------------------------------

   Round 0's requests replayed in this process, against the layers the
   server runs behind its socket.  Each replay opens a store of its own
   in a fresh directory. *)

let stores = ref 0

let fresh_store dir =
  incr stores;
  Service.Store.create ~capacity:(1 lsl 30)
    ~dir:(Printf.sprintf "%s/replay-%d" dir !stores)
    ()

type replay = {
  rp_s : float;  (** calibrated seconds of the round *)
  rp_factor : float;
  rp_reports : Dbds.Driver.report list;
  rp_opt_mw : float;  (** minor words inside the optimizer *)
  rp_compile_mw : float;
      (** ... and on the whole compile path (parse, optimizer, canonical
          text): the broker's work for a miss *)
  rp_work : int;
  rp_hits : int;
  rp_misses : int;
}

(* The store path request by request, as the broker walks it: digest,
   store lookup, and on a miss the compile and the publication.  With
   [traced], each step is a span under a "request" root. *)
let replay_layers pool ~seed ~dir ~traced =
  let store = fresh_store dir in
  let step name f = if traced then span name f else f () in
  let reports = ref [] and opt_w = ref 0. and compile_w = ref 0. in
  let k0 = kernel () in
  let (), d =
    time (fun () ->
        List.iter
          (fun rq ->
            step "request" (fun () ->
                let digest =
                  step "digest" (fun () ->
                      Service.Digest.of_request
                        (Service.Digest.request_of_text ~config:(config rq)
                           ~fn:rq.rq_name rq.rq_ir))
                in
                match step "store.get" (fun () -> Service.Store.get store ~digest) with
                | Some _ -> ()
                | None ->
                    let w0 = Gc.minor_words () in
                    let g = Ir.Parse.parse_graph rq.rq_ir in
                    let w1 = Gc.minor_words () in
                    let r =
                      step "optimize" (fun () ->
                          Dbds.Driver.optimize_program_report ~config:(config rq)
                            ~inline:false ~jobs:1 (Ir.Program.of_graph g))
                    in
                    opt_w := !opt_w +. (Gc.minor_words () -. w1);
                    reports := r :: !reports;
                    let ir = step "digest" (fun () -> Service.Digest.canonical_of_graph g) in
                    compile_w := !compile_w +. (Gc.minor_words () -. w0);
                    step "store.put" (fun () ->
                        Service.Store.put ~replicate:false store ~digest
                          ~fn:rq.rq_name ~ir ~work:r.Dbds.Driver.rep_ctx.Opt.Phase.work)))
          (round_schedule pool ~seed ~round:0))
  in
  let f = factor [ k0; kernel () ] in
  let st = Service.Store.stats store in
  {
    rp_s = d *. f;
    rp_factor = f;
    rp_reports = List.rev !reports;
    rp_opt_mw = !opt_w /. 1e6;
    rp_compile_mw = !compile_w /. 1e6;
    rp_work =
      List.fold_left (fun a r -> a + r.Dbds.Driver.rep_ctx.Opt.Phase.work) 0 !reports;
    rp_hits = st.Service.Store.hits;
    rp_misses = st.Service.Store.misses;
  }

(* The simulation tier alone on each cold request's graph. *)
let replay_dst pool ~seed =
  let k0 = kernel () in
  let since = !next_id in
  let n =
    List.fold_left
      (fun n rq ->
        let g = Ir.Parse.parse_graph rq.rq_ir in
        let ctx = Opt.Phase.create ~program:(Ir.Program.of_graph g) () in
        n + span "dst" (fun () -> List.length (Dbds.Simulation.simulate ctx (config rq) g)))
      0
      (distinct (round_schedule pool ~seed ~round:0))
  in
  let f = factor [ k0; kernel () ] in
  (self_of (self_by_name ~since ()) "dst" *. f, n)

(* In-process [Broker.submit] on a round's requests, as the measured
   loop sends them: on round 0 under its window (per connection,
   [window] submitting threads take its requests in order), or with
   [~lone] on round 1, one at a time.  Per request, the calibrated
   seconds inside [submit], by (slot, connection); the broker's counts;
   the calibration factor. *)
let replay_broker pool ~seed ~dir ~lone =
  let b =
    Service.Broker.create ~workers:(service_workers ()) ~queue_limit:4096
      ~store:(Some (fresh_store dir)) ()
  in
  let reqs = round_schedule pool ~seed ~round:(if lone then 1 else 0) in
  let lock = Mutex.create () and lat = Hashtbl.create 512 in
  let submit rq =
    let s = now () in
    ignore (Service.Broker.submit ~config:(config rq) ~fn:rq.rq_name ~ir:rq.rq_ir b);
    let d = now () -. s in
    Mutex.protect lock (fun () -> Hashtbl.replace lat (rq.rq_slot, rq.rq_conn) d)
  in
  let k0 = kernel () in
  let submitters =
    if lone then [ Thread.create (List.iter submit) reqs ]
    else
      List.concat_map
        (fun i ->
          let q = Queue.of_seq (List.to_seq (List.filter (fun rq -> rq.rq_conn = i) reqs)) in
          let rec submitter () =
            match Mutex.protect lock (fun () -> Queue.take_opt q) with
            | None -> ()
            | Some rq ->
                submit rq;
                submitter ()
          in
          List.init window (fun _ -> Thread.create submitter ()))
        (List.init conns Fun.id)
  in
  List.iter Thread.join submitters;
  let f = factor [ k0; kernel () ] in
  Service.Broker.shutdown b;
  (Hashtbl.fold (fun k v acc -> (k, v *. f) :: acc) lat [], Service.Broker.stats b, f)

(* Per-layer figures, from the last of [overhead_pairs] untraced and
   traced replays run one after the other.  Every replay must do the
   same work as [plain], the untraced replay the checks made, so the
   ratio of a pair's raw times is the cost of the spans; the overhead is
   the median over the pairs. *)
let overhead_pairs = 3

let layer_figures pool ~seed ~dir (op : phase) ~(plain : replay) =
  let ms s = s *. 1000. in
  let raw r = r.rp_s /. r.rp_factor in
  let pairs =
    List.init overhead_pairs (fun _ ->
        let p = replay_layers pool ~seed ~dir ~traced:false in
        let since = !next_id in
        (p, since, replay_layers pool ~seed ~dir ~traced:true))
  in
  let _, since, traced = List.nth pairs (overhead_pairs - 1) in
  let same r =
    (r.rp_hits, r.rp_misses, r.rp_work) = (plain.rp_hits, plain.rp_misses, plain.rp_work)
  in
  let errors =
    if List.for_all (fun (p, _, t) -> same p && same t) pairs then []
    else [ "a replay differs from the checked one in hits, misses or work" ]
  in
  let f = traced.rp_factor in
  let selfs = self_by_name ~since () in
  let self name = self_of selfs name *. f in
  let total =
    List.fold_left
      (fun a sp ->
        if sp.sp_id >= since && sp.sp_name = "request" then
          a +. (sp.sp_stop -. sp.sp_start)
        else a)
      0. !spans
  in
  let dst_s, cands = replay_dst pool ~seed in
  let broker, bst, _ = replay_broker pool ~seed ~dir ~lone:false in
  let lone, _, lone_f = replay_broker pool ~seed ~dir ~lone:true in
  let broker_lat = List.map snd broker in
  (* Client time from send to reply of a request sent alone, less the
     broker's time for the same request submitted alone: socket, framing,
     the front door's lanes and dispatch. *)
  let wire =
    List.filter_map
      (fun r ->
        let rq = r.r_req in
        if rq.rq_round <> 1 then None
        else
          Option.map
            (fun b -> ((r.r_done -. r.r_sent) *. lone_f) -. b)
            (List.assoc_opt (rq.rq_slot, rq.rq_conn) lone))
      op.replies
  in
  ( errors,
    [
      ("optimize.ms", ms (self "optimize"));
      ("optimize.mwords", traced.rp_opt_mw);
      ("dst.ms", ms dst_s);
      ("dst.candidates", float_of_int cands);
      ("digest.ms", ms (self "digest"));
      ("store.get_ms", ms (self "store.get"));
      ("store.put_ms", ms (self "store.put"));
      ("store.hit_rate", Aot.ratio traced.rp_hits (traced.rp_hits + traced.rp_misses));
      ("broker.submit_ms_p50", ms (median broker_lat));
      ("broker.submit_ms_p99", ms (snd (tail broker_lat)));
      ("broker.coalesced", float_of_int bst.Service.Broker.coalesced);
      ("broker.compiles", float_of_int bst.Service.Broker.compiles);
      ("wire.ms_p50", ms (median wire));
      ("trace.unaccounted_ms", ms (self "request"));
      ("trace.unaccounted_share", if total > 0. then self_of selfs "request" /. total else 0.);
      ("trace.overhead", median (List.map (fun (p, _, t) -> raw t /. raw p) pairs) -. 1.);
    ]
    @ Aot.report_figures ~factor:f traced.rp_reports )

(* The calibration kernel runs in a helper process for the whole run
   ([Util.helper]). *)
let with_kernel_helper f =
  let exe = Sys.executable_name in
  let ic, oc = Unix.open_process_args exe [| exe; "--kernel-helper" |] in
  helper := Some (ic, oc);
  Fun.protect
    ~finally:(fun () ->
      helper := None;
      ignore (Unix.close_process (ic, oc)))
    f

let run ~dbdsc ~seed ~seconds ~trace : Aot.result =
  let dir = workdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  with_kernel_helper (fun () ->
      let pool, srv, cs, setup_raw, setup_cal = setup ~dbdsc ~dir in
      (* The traced run leaves half its time to the replays. *)
      let ph = run_rounds pool cs ~seed ~seconds:(if trace then seconds *. 0.5 else seconds) in
      let counts = server_counts cs.(0) in
      let rss = peak_rss_mb ~pid:srv.pid () in
      stop_server srv (Array.to_list cs);
      let chk = check pool ph.replies in
      let replay = replay_layers pool ~seed ~dir ~traced:false in
      let count k = Option.value ~default:(-1) (List.assoc_opt k counts) in
      let digests = List.length (distinct (List.map (fun r -> r.r_req) ph.replies)) in
      let errors =
        chk.errors
        @ (if replay.rp_work = chk.round_work then []
           else
             [ Printf.sprintf "server work %d, in-process work %d" chk.round_work replay.rp_work ])
        @ (if count "compiles" = digests then []
           else [ Printf.sprintf "server compiled %d times for %d digests" (count "compiles") digests ])
        @
        if count "compiles" + count "cache_hits" + count "coalesced" = List.length ph.replies
        then []
        else [ "server's compiles, hits and coalesced requests do not add up to the requests sent" ]
      in
      let layer_errors, layer =
        if trace then layer_figures pool ~seed ~dir ph ~plain:replay else ([], [])
      in
      let errors = errors @ layer_errors in
      {
        Aot.correct = errors = [];
        attempted = List.length ph.replies;
        failed = chk.failed;
        metrics =
          [
            metric "setup_s" "s" setup_cal;
            metric "compile_per_s" "1/s" ph.rate_cal;
            metric "req_ms_p50" "ms" (ph.p50_cal *. 1000.);
            metric "req_ms_p99" "ms" (ph.p99_cal *. 1000.);
            metric "compile_work" "units" (float_of_int chk.round_work);
            metric "alloc_mwords" "Mwords" replay.rp_compile_mw;
            metric "run_cycles_geomean" "ratio" (geomean chk.cycles_ratio);
            metric "code_size_geomean" "ratio" (geomean chk.size_ratio);
            metric "peak_rss_mb" "MiB" rss;
          ];
        detail =
          [
            ("functions", float_of_int (Array.length pool.fns));
            ( "round_requests",
              float_of_int (List.length (round_schedule pool ~seed ~round:0)) );
            ("rounds", float_of_int ph.rounds);
            ("server_compiles", float_of_int (count "compiles"));
            ("server_cache_hits", float_of_int (count "cache_hits"));
            ("server_coalesced", float_of_int (count "coalesced"));
            ("setup_s_raw", setup_raw);
            ("compile_per_s_raw", ph.rate_raw);
            ("req_ms_p50_raw", ph.p50_raw *. 1000.);
            ("req_ms_p99_raw", ph.p99_raw *. 1000.);
          ];
        errors;
        layer;
      })
