(* The two ahead-of-time workloads: a closed loop compiling source text
   to optimized IR in this process, one program after another.

   aot-corpus: the 46 paper-figure programs and the 12 lab programs, at
   jobs=1 (how the service and the VM compile).
   aot-large: Progen programs of one to 33 functions, at dbdsc's default
   jobs (= nproc), so inlining and the per-function fan-out over the
   domain pool carry the work. *)

open Util

type input = {
  name : string;
  bench : Workloads.Suite.benchmark;
  check_args : int array list;
      (** interpreter inputs of the checks; the first one also gives the
          cycle counts *)
}

let corpus_programs () =
  List.concat_map
    (fun s -> s.Workloads.Suite.benchmarks)
    (Workloads.Registry.all @ Workloads.Registry.adversarial)

let corpus_inputs ~seed:_ =
  List.map
    (fun b ->
      { name = b.Workloads.Suite.name; bench = b; check_args = [ b.args ] })
    (corpus_programs ())

(* Helper counts and generator seeds of aot-large.  They are fixed, so the
   work of a pass does not depend on --seed; the seed picks the loop
   order and a second interpreter input for the checks.  An odd count
   puts the median latency inside one program's samples rather than
   between two programs of different sizes. *)
let large_shapes =
  List.map
    (fun h -> (h, 9100 + h))
    [ 0; 1; 2; 3; 4; 6; 8; 10; 12; 16; 20; 24; 32 ]

let large_cycle_args = [| 7; 3 |]

let large_inputs ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  List.map
    (fun (n_helpers, pseed) ->
      let source =
        Workloads.Progen.generate ~n_helpers ~depth:3 ~seed:pseed ()
      in
      let name = Printf.sprintf "progen-h%d-s%d" n_helpers pseed in
      let extra =
        [| Random.State.int rng 200 - 100; Random.State.int rng 200 - 100 |]
      in
      {
        name;
        bench =
          Workloads.Suite.bench ~name ~description:"Progen"
            ~args:large_cycle_args source;
        check_args = [ large_cycle_args; extra ];
      })
    large_shapes

let shuffle ~seed xs =
  let rng = Random.State.make [| seed; 29 |] in
  List.map snd
    (List.stable_sort
       (fun (a, _) (b, _) -> compare a b)
       (List.map (fun x -> (Random.State.bits rng, x)) xs))

type spec = { w_name : string; jobs : int; inputs : seed:int -> input list }

let corpus = { w_name = "aot-corpus"; jobs = 1; inputs = corpus_inputs }

let large =
  {
    w_name = "aot-large";
    jobs = Ir.Parallel.default_jobs ();
    inputs = large_inputs;
  }

let source_kb inputs =
  float_of_int
    (List.fold_left
       (fun a i -> a + String.length i.bench.Workloads.Suite.source)
       0 inputs)
  /. 1024.

(* ---- one compile ---------------------------------------------------- *)

let compile_untraced ~jobs inp =
  let p = Workloads.Suite.compile inp.bench in
  let r =
    Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds ~jobs p
  in
  (p, r.Dbds.Driver.rep_ctx.Opt.Phase.work, r.Dbds.Driver.rep_failures = [])

(* The same compile with a span around each layer's public call:
   frontend, inlining, the per-function optimizer.  Inlining first and
   optimizing with [~inline:false] is what the driver does inside one
   call; the work units of the two contexts add up to the same total. *)
type traced = {
  t_report : Dbds.Driver.report;
  t_work : int;
  t_lang_mw : float;
  t_opt_mw : float;
  t_pool : Ir.Parallel.util option;
}

let compile_traced ~jobs inp =
  span "compile" (fun () ->
      let w0 = minor_mwords () in
      let p = span "lang" (fun () -> Workloads.Suite.compile inp.bench) in
      let w1 = minor_mwords () in
      let ictx = Opt.Phase.create ~program:p () in
      span "inline" (fun () -> ignore (Opt.Inline.inline_program ictx p));
      let pool = ref None in
      let w2 = minor_mwords () in
      let r =
        span "optimize" (fun () ->
            Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds
              ~inline:false ~jobs ~sched_stats:pool p)
      in
      let w3 = minor_mwords () in
      ( p,
        {
          t_report = r;
          t_work = ictx.Opt.Phase.work + r.Dbds.Driver.rep_ctx.Opt.Phase.work;
          t_lang_mw = w1 -. w0;
          t_opt_mw = w3 -. w2;
          t_pool = !pool;
        } ))

(* The simulation tier alone on each function's graph, after inlining:
   returns the number of candidates. *)
let simulate_alone inp =
  let p = Workloads.Suite.compile inp.bench in
  ignore (Opt.Inline.inline_program (Opt.Phase.create ~program:p ()) p);
  let ctx = Opt.Phase.create ~program:p () in
  let n = ref 0 in
  Ir.Program.iter_functions p (fun g ->
      span "dst" (fun () ->
          n := !n + List.length (Dbds.Simulation.simulate ctx Dbds.Config.dbds g)));
  !n

(* Printed IR of every function, in name order. *)
let print_program p =
  String.concat "\n"
    (List.map
       (fun fn ->
         Ir.Printer.graph_to_string (Option.get (Ir.Program.find_function p fn)))
       (Ir.Program.function_names p))

(* ---- the timed loop --------------------------------------------------

   Whole passes over the inputs until the time is up.  A kernel run
   closes every stretch of about 50 ms of compiling (on as many domains
   as the compile uses); once the loop is over, each stretch is
   calibrated by the kernel runs around it ([Util.stretch_factor]). *)

let stretch_s = 0.05

(* The fewest passes a 25-second aot-large run completed on a busy host. *)
let tail_passes = 15

type pass = {
  p_stretches : float list list;  (** seconds per program, per stretch *)
  p_bounds : float list list;  (** kernel runs at each stretch boundary *)
  p_lat_cal : float list;  (** filled in by [calibrate] *)
  p_cal_s : float;
  p_factor : float;  (** calibrated ÷ raw time of the pass *)
  p_work : int;
  p_failed : int;
  p_outputs : (string * string) list;  (** kept for the last pass only *)
  p_traced : (input * traced) list;
  p_spans : int * int;  (** ids of the pass's spans *)
}

let raw_s p = List.fold_left (fun a st -> List.fold_left ( +. ) a st) 0. p.p_stretches
let lat_raw p = List.concat p.p_stretches

let run_pass ?(traced = false) ~jobs inputs =
  let since = !next_id in
  let bounds = ref [ kernel_for jobs ] and stretches = ref [] in
  let pending = ref [] and stretch_t0 = ref (now ()) in
  let work = ref 0 and failed = ref 0 in
  let outputs = ref [] and tr = ref [] in
  let close_stretch () =
    stretches := !pending :: !stretches;
    bounds := kernel_for jobs :: !bounds;
    pending := [];
    stretch_t0 := now ()
  in
  List.iter
    (fun inp ->
      let t0 = now () in
      let p =
        if traced then begin
          let p, t = compile_traced ~jobs inp in
          work := !work + t.t_work;
          if t.t_report.Dbds.Driver.rep_failures <> [] then incr failed;
          tr := (inp, t) :: !tr;
          p
        end
        else
          let p, w, ok = compile_untraced ~jobs inp in
          work := !work + w;
          if not ok then incr failed;
          p
      in
      pending := (now () -. t0) :: !pending;
      outputs := (inp.name, print_program p) :: !outputs;
      if now () -. !stretch_t0 >= stretch_s then close_stretch ())
    inputs;
  if !pending <> [] then close_stretch ();
  {
    p_stretches = List.rev !stretches;
    p_bounds = List.map (fun k -> [ k ]) (List.rev !bounds);
    p_lat_cal = [];
    p_cal_s = nan;
    p_factor = nan;
    p_work = !work;
    p_failed = !failed;
    p_outputs = !outputs;
    p_traced = List.rev !tr;
    p_spans = (since, !next_id);
  }

(* Calibrate every stretch of [passes] against the kernel runs of its
   neighbourhood, across pass ends. *)
let calibrate ~jobs passes =
  let bounds = Array.of_list (List.concat_map (fun p -> p.p_bounds) passes) in
  let offset = ref 0 in
  List.map
    (fun p ->
      let lat =
        List.concat
          (List.mapi
             (fun j st ->
               let f = stretch_factor ~jobs bounds ~stretch:(!offset + j) in
               List.map (fun d -> d *. f) st)
             p.p_stretches)
      in
      offset := !offset + List.length p.p_bounds;
      let cal = List.fold_left ( +. ) 0. lat in
      { p with p_lat_cal = lat; p_cal_s = cal; p_factor = cal /. raw_s p })
    passes

(* Only the last pass's printed output is kept. *)
let run_passes ?traced ?(after = ignore) ~jobs ~seconds inputs =
  let deadline = now () +. seconds in
  let rec go acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      let p = run_pass ?traced ~jobs inputs in
      after p;
      let acc = List.map (fun q -> { q with p_outputs = []; p_traced = [] }) acc in
      go (p :: acc)
    end
  in
  calibrate ~jobs (go [])

(* ---- setup -----------------------------------------------------------

   Input generation and one warm-up pass, which parses and compiles
   every input; done [setup_reps] times.  The median repetition is
   calibrated by the median of all the kernel runs between the warm-up
   passes' stretches: a repetition takes 0.1-0.5 s, and the few kernel
   runs next to one are too noisy to calibrate it alone. *)

let setup_reps = 9

let setup spec ~seed =
  let reps =
    List.init setup_reps (fun _ ->
        let inputs, gen = time (fun () -> shuffle ~seed (spec.inputs ~seed)) in
        (inputs, gen, run_pass ~jobs:spec.jobs inputs))
  in
  let raw = median (List.map (fun (_, gen, p) -> gen +. raw_s p) reps) in
  let ks = List.concat_map (fun (_, _, p) -> List.concat p.p_bounds) reps in
  let inputs, _, _ = List.hd reps in
  (inputs, raw, raw *. factor_for spec.jobs ks)

(* ---- memory ------------------------------------------------------------

   Peak resident set of a fresh process that compiles every input once,
   in a fixed order (median of five such processes): the same
   allocations on every run, so the same peak, where the timed loop's
   peak would depend on how many passes fit and on the kernel runs in
   between. *)

let rss_probe spec ~seed =
  List.iter (fun i -> ignore (compile_untraced ~jobs:spec.jobs i)) (spec.inputs ~seed);
  peak_rss_mb ()

let probe_rss spec ~seed =
  let exe = Sys.executable_name in
  let once () =
    let ic =
      Unix.open_process_args_in exe
        [| exe; "--workload"; spec.w_name; "--seed"; string_of_int seed; "--rss-probe" |]
    in
    let v = float_of_string_opt (String.trim (In_channel.input_all ic)) in
    match (Unix.close_process_in ic, v) with
    | Unix.WEXITED 0, Some v -> v
    | _ -> failwith "rss probe failed"
  in
  (* At jobs > 1 the domains' interleaving moves the peak a little. *)
  median (List.init 5 (fun _ -> once ()))

(* ---- checks ----------------------------------------------------------

   Every input, under [off] and [dbds] at jobs=1: every optimized
   function passes the verifier, and the optimized program interprets to
   the same result and globals as the frontend's unoptimized IR on every
   check input.  The timed loop's printed output must equal the jobs=1
   dbds output byte for byte. *)

type check = {
  errors : string list;
  cycles_ratio : float list;  (** dbds / off, per input *)
  size_ratio : float list;
  alloc_mw : float;  (** minor words of one jobs=1 dbds pass *)
}

let run_prog p args =
  let r, st, globals = Interp.Machine.run_full ~fuel:50_000_000 p ~args in
  ( Interp.Machine.result_to_string r
    ^ " "
    ^ String.concat ","
        (List.map
           (fun (g, v) -> g ^ "=" ^ Interp.Machine.value_to_string v)
           globals),
    st.Interp.Machine.cycles )

let code_size p =
  let n = ref 0 in
  Ir.Program.iter_functions p (fun g -> n := !n + Costmodel.Estimate.graph_size g);
  !n

let check inputs ~outputs =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let alloc = ref 0. in
  let ratios =
    List.map
      (fun inp ->
        let expect =
          List.map
            (fun a -> fst (run_prog (Workloads.Suite.compile inp.bench) a))
            inp.check_args
        in
        let optimized config =
          let w0 = Gc.minor_words () in
          let p = Workloads.Suite.compile inp.bench in
          let r = Dbds.Driver.optimize_program_report ~config ~jobs:1 p in
          let words = Gc.minor_words () -. w0 in
          let mode = Dbds.Config.mode_to_string config.Dbds.Config.mode in
          if r.Dbds.Driver.rep_failures <> [] then
            err "%s under %s: contained failures" inp.name mode;
          Ir.Program.iter_functions p (fun g ->
              match Ir.Verifier.verify_result g with
              | Ok () -> ()
              | Error e ->
                  err "%s/%s under %s: verifier: %s" inp.name (Ir.Graph.name g)
                    mode e);
          let cycles =
            List.map2
              (fun a want ->
                let got, cy = run_prog p a in
                if got <> want then
                  err "%s under %s: got %s, want %s" inp.name mode got want;
                cy)
              inp.check_args expect
          in
          (p, List.hd cycles, words)
        in
        let p_off, cy_off, _ = optimized Dbds.Config.off in
        let p_dbds, cy_dbds, words = optimized Dbds.Config.dbds in
        alloc := !alloc +. words;
        (match List.assoc_opt inp.name outputs with
        | Some out when out = print_program p_dbds -> ()
        | Some _ -> err "%s: timed output differs from the jobs=1 compile" inp.name
        | None -> err "%s: no timed output" inp.name);
        ( cy_dbds /. cy_off,
          float_of_int (code_size p_dbds) /. float_of_int (code_size p_off) ))
      inputs
  in
  {
    errors = List.rev !errors;
    cycles_ratio = List.map fst ratios;
    size_ratio = List.map snd ratios;
    alloc_mw = !alloc /. 1e6;
  }

(* ---- the workload ------------------------------------------------------ *)

let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Figures the optimizer itself counts, summed over [reports]: the
   duplication tier's statistics, the analysis cache, and the per-pass
   table (times scaled by the calibration [factor]). *)
let report_figures ~factor reports =
  let stats =
    Dbds.Driver.total_stats
      (List.concat_map (fun r -> r.Dbds.Driver.rep_stats) reports)
  in
  let ctxs = List.map (fun r -> r.Dbds.Driver.rep_ctx) reports in
  let table = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (n, (s : Opt.Phase.pass_stat)) ->
          let r, fi, w, t =
            Option.value ~default:(0, 0, 0, 0.) (Hashtbl.find_opt table n)
          in
          Hashtbl.replace table n
            (r + s.runs, fi + s.fired, w + s.pwork, t +. s.time_s))
        (Opt.Phase.pass_table c))
    ctxs;
  let hits = sumi (fun c -> c.Opt.Phase.analysis_hits) ctxs in
  let misses = sumi (fun c -> c.Opt.Phase.analysis_misses) ctxs in
  [
    ( "tradeoff.accept_ratio",
      ratio stats.Dbds.Driver.duplications_performed stats.candidates_found );
    ("dbds.duplications", float_of_int stats.duplications_performed);
    ("dbds.iterations", float_of_int stats.iterations_run);
    ("analyses.hit_rate", ratio hits (hits + misses));
  ]
  @ List.concat_map
      (fun n ->
        let r, fi, w, t =
          Option.value ~default:(0, 0, 0, 0.) (Hashtbl.find_opt table n)
        in
        [
          (Printf.sprintf "pass.%s.ms" n, t *. factor *. 1000.);
          (Printf.sprintf "pass.%s.work" n, float_of_int w);
          (Printf.sprintf "pass.%s.fired_ratio" n, ratio fi r);
        ])
      Layers.pass_names

(* Per-layer figures of one traced pass, by metric name, with times in
   raw milliseconds: [scale] calibrates them once the pass's factor is
   known. *)
let layer_figures (p : pass) ~dst_cands ~until =
  let since = fst p.p_spans in
  let selfs = self_by_name ~since ~until () in
  let ms name = self_of selfs name *. 1000. in
  let tr = List.map snd p.p_traced in
  let pools = List.filter_map (fun t -> t.t_pool) tr in
  let busy = sumf (fun u -> Array.fold_left ( +. ) 0. u.Ir.Parallel.busy) pools in
  let capacity =
    sumf (fun u -> float_of_int u.Ir.Parallel.workers *. u.Ir.Parallel.elapsed) pools
  in
  let compile_total =
    sumf
      (fun sp -> sp.sp_stop -. sp.sp_start)
      (List.filter
         (fun sp -> sp.sp_id >= since && sp.sp_id < until && sp.sp_name = "compile")
         !spans)
  in
  [
    ("lang.ms", ms "lang");
    ("lang.mwords", sumf (fun t -> t.t_lang_mw) tr);
    ("inline.ms", ms "inline");
    ("optimize.ms", ms "optimize");
    ("optimize.mwords", sumf (fun t -> t.t_opt_mw) tr);
    ("dst.ms", ms "dst");
    ("dst.candidates", float_of_int dst_cands);
    ("pool.busy_share", if capacity > 0. then busy /. capacity else 0.);
    ("pool.wall_ms", sumf (fun u -> u.Ir.Parallel.elapsed) pools *. 1000.);
    ("trace.unaccounted_ms", ms "compile");
    ( "trace.unaccounted_share",
      if compile_total > 0. then self_of selfs "compile" /. compile_total else 0. );
    ("trace.compile_ms", compile_total *. 1000.);
  ]
  @ report_figures ~factor:1. (List.map (fun t -> t.t_report) tr)

(* Calibrate a pass's raw figures by its factor; the frontend's speed
   follows from its calibrated time. *)
let scale inputs f figs =
  let is_ms n =
    let l = String.length n in
    l > 3 && (String.sub n (l - 3) 3 = ".ms" || String.sub n (l - 3) 3 = "_ms")
  in
  let figs = List.map (fun (n, v) -> (n, if is_ms n then v *. f else v)) figs in
  let lang_ms = List.assoc "lang.ms" figs in
  ("lang.kb_per_s", if lang_ms > 0. then source_kb inputs /. (lang_ms /. 1000.) else 0.)
  :: figs

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * float) list;
  errors : string list;
  layer : (string * float) list;  (** per-layer figures of a traced run *)
}

let run spec ~seed ~seconds ~trace =
  let inputs, setup_raw, setup_cal = setup spec ~seed in
  let n = List.length inputs in
  let errors = ref [] in
  let exact_once what xs =
    match List.sort_uniq compare xs with
    | [ _ ] | [] -> ()
    | _ -> errors := Printf.sprintf "%s differs between passes" what :: !errors
  in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let passes = run_passes ~jobs:spec.jobs ~seconds:untraced_s inputs in
  exact_once "compile_work" (List.map (fun p -> p.p_work) passes);
  let last = List.nth passes (List.length passes - 1) in
  let attempted = n * List.length passes in
  let failed = sumi (fun p -> p.p_failed) passes in
  let lat_cal = List.concat_map (fun p -> p.p_lat_cal) passes in
  let lats_raw = List.concat_map lat_raw passes in
  (* The tail's percentile depends on the sample count, and a slow host
     runs fewer passes: the percentile is the one for [tail_passes]
     passes (or for all samples, if fewer), so it does not move with the
     host's speed, and it is estimated over all samples. *)
  let tail_of f =
    let xs = List.concat_map f passes in
    let q = tail_q (min (List.length xs) (n * tail_passes)) in
    (q, quantile xs q)
  in
  let q, p_tail = tail_of (fun p -> p.p_lat_cal) in
  let _, p_tail_raw = tail_of lat_raw in
  let rate_cal = median (List.map (fun p -> float_of_int n /. p.p_cal_s) passes) in
  let rate_raw = median (List.map (fun p -> float_of_int n /. raw_s p) passes) in
  let layer =
    if not trace then []
    else begin
      (* The simulation tier runs alone after each traced pass, inside
         the pass's span range; outputs and work must match the untraced
         loop's. *)
      let figs = ref [] in
      let after p =
        let dst_cands = sumi simulate_alone inputs in
        figs := layer_figures p ~dst_cands ~until:!next_id :: !figs;
        exact_once "compile_work (traced)"
          [ last.p_work; sumi (fun (_, t) -> t.t_work) p.p_traced ];
        if List.sort compare p.p_outputs <> List.sort compare last.p_outputs then
          errors := "traced output differs from the untraced output" :: !errors
      in
      let tps =
        run_passes ~traced:true ~after ~jobs:spec.jobs ~seconds:(seconds /. 2.) inputs
      in
      let figs = List.map2 (fun p f -> scale inputs p.p_factor f) tps (List.rev !figs) in
      let med name = median (List.map (List.assoc name) figs) in
      let untraced = median (List.map (fun p -> p.p_cal_s) passes) in
      List.filter_map
        (fun (n, _) -> if n = "trace.compile_ms" then None else Some (n, med n))
        (List.hd figs)
      @ [ ("trace.overhead", (med "trace.compile_ms" /. 1000. /. untraced) -. 1.) ]
    end
  in
  let chk = check inputs ~outputs:last.p_outputs in
  errors := !errors @ chk.errors;
  let metrics =
    [
      metric "setup_s" "s" setup_cal;
      metric "compile_per_s" "1/s" rate_cal;
      metric "req_ms_p50" "ms" (median lat_cal *. 1000.);
      metric "req_ms_p99" "ms" (p_tail *. 1000.);
      metric "compile_work" "units" (float_of_int last.p_work);
      metric "alloc_mwords" "Mwords" chk.alloc_mw;
      metric "run_cycles_geomean" "ratio" (geomean chk.cycles_ratio);
      metric "code_size_geomean" "ratio" (geomean chk.size_ratio);
      metric "peak_rss_mb" "MiB" (probe_rss spec ~seed);
    ]
  in
  {
    correct = !errors = [];
    attempted;
    failed;
    metrics;
    detail =
      [
        ("passes", float_of_int (List.length passes));
        ("tail_quantile", q);
        ("setup_s_raw", setup_raw);
        ("compile_per_s_raw", rate_raw);
        ("req_ms_p50_raw", median lats_raw *. 1000.);
        ("req_ms_p99_raw", p_tail_raw *. 1000.);
      ];
    errors = !errors;
    layer;
  }
