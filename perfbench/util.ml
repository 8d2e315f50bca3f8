(* Shared pieces of the benchmark: clock, statistics, the calibration
   kernel, the span recorder and the result printer. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- statistics --------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method). *)
let quantile xs q =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The highest percentile, at most the 99th, that leaves at least ten
   samples beyond it; [(q, value)]. *)
let tail_q n = Float.max 0.5 (Float.min 0.99 (1. -. (10. /. float_of_int (max 1 n))))

let tail xs =
  let q = tail_q (List.length xs) in
  (q, quantile xs q)

(* Summed in sorted order, so the same values give the same bits
   whatever order they came in. *)
let geomean xs =
  match sorted xs with
  | [] -> nan
  | s ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. s
        /. float_of_int (List.length s))

(* ---- calibration ---------------------------------------------------

   A fixed, allocation-heavy kernel run in this process between measured
   calls.  Its duration tracks the host's current speed (shared hosts
   drift by tens of percent over minutes); a measured time [t] is
   reported as [t * nominal / k], where [k] is the kernel's duration
   next to the measurement.  The kernel only allocates short-lived
   lists, records and strings, like the compiler's own inner loops. *)

let kernel_nominal_s = 0.0045
let kernel_par_nominal_s = 0.0064

let kernel_body () =
  let acc = ref 0 in
  for i = 1 to 600 do
    let l = List.init 48 (fun j -> (i lxor j, j * 7)) in
    let m = List.rev_map (fun (a, b) -> (b + 1, a, string_of_int (a land 255))) l in
    acc :=
      List.fold_left (fun s (a, b, c) -> s + a + b + String.length c) !acc m
  done;
  Sys.opaque_identity !acc

(* The kernel can run in a helper process instead ([serve_kernel]): a
   process that holds nothing but the kernel keeps a small heap, so its
   runs carry no slices of this process's major collections, whose heap
   grows with the replies a run keeps. *)
let helper : (in_channel * out_channel) option ref = ref None

(* The helper's loop: a kernel run for each line read, its duration
   written back, until the input ends. *)
let serve_kernel () =
  for _ = 1 to 3 do
    ignore (kernel_body ())
  done;
  try
    while true do
      ignore (input_line stdin);
      let _, d = time kernel_body in
      Printf.printf "%.17g\n%!" d
    done
  with End_of_file -> ()

(* Seconds taken by one kernel run; every call is also recorded so the
   run can report the kernel's raw speed. *)
let kernel_samples = ref []

let kernel () =
  let d =
    match !helper with
    | None -> snd (time kernel_body)
    | Some (ic, oc) ->
        output_string oc "k\n";
        flush oc;
        float_of_string (input_line ic)
  in
  kernel_samples := d :: !kernel_samples;
  d

(* The kernel on [n] domains at once, for work that keeps [n] cores busy
   (on a shared host a core's speed depends on whether its sibling is
   busy); seconds until the last one finished. *)
let kernel_par_samples = ref []

let kernel_par n =
  let t0 = now () in
  let ds = List.init (n - 1) (fun _ -> Domain.spawn kernel_body) in
  ignore (kernel_body ());
  List.iter (fun d -> ignore (Domain.join d)) ds;
  let d = now () -. t0 in
  kernel_par_samples := d :: !kernel_par_samples;
  d

(* Calibration factor from kernel runs taken around a measurement. *)
let factor ks = kernel_nominal_s /. median ks
let factor_par ks = kernel_par_nominal_s /. median ks

(* The kernel that matches work keeping [jobs] cores busy, and the
   factor for its runs. *)
let kernel_for jobs = if jobs > 1 then kernel_par jobs else kernel ()
let factor_for jobs ks = if jobs > 1 then factor_par ks else factor ks

(* Measured stretches separated by kernel runs: [bounds.(i)] holds the
   runs before stretch [i], [bounds.(i + 1)] those after it.  A stretch is
   calibrated by the median of the runs at [window] boundaries on either
   side: one or two short kernel runs are too noisy to calibrate one
   stretch, while the host's speed drifts over tens of seconds. *)
let window = 3

let stretch_factor ~jobs bounds ~stretch =
  let lo = max 0 (stretch - window + 1)
  and hi = min (Array.length bounds - 1) (stretch + window) in
  factor_for jobs (List.concat (Array.to_list (Array.sub bounds lo (hi - lo + 1))))

(* ---- process facts ------------------------------------------------- *)

let nproc () = Domain.recommended_domain_count ()

(* Peak resident set in MiB ([VmHWM]) of [pid], or of this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else go ()
      in
      let r = go () in
      close_in ic;
      r

(* Minor words allocated so far by this domain, in millions. *)
let minor_mwords () = Gc.minor_words () /. 1e6

(* ---- spans ----------------------------------------------------------

   The traced run records a span around each call into a layer.  Spans
   are kept in memory ([name], start, end, parent) and written out when
   the run ends.  Spans nest on one thread, so a layer's self time is
   its duration minus its children's durations. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** -1 at the root *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_children : float;  (** summed child durations *)
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let span name f =
  let parent = match !stack with p :: _ -> p.sp_id | [] -> -1 in
  let sp =
    {
      sp_id = !next_id;
      sp_name = name;
      sp_parent = parent;
      sp_start = now ();
      sp_stop = nan;
      sp_children = 0.;
    }
  in
  incr next_id;
  stack := sp :: !stack;
  let finish () =
    sp.sp_stop <- now ();
    stack := List.tl !stack;
    (match !stack with
    | p :: _ -> p.sp_children <- p.sp_children +. (sp.sp_stop -. sp.sp_start)
    | [] -> ());
    spans := sp :: !spans
  in
  Fun.protect ~finally:finish f

let self_s sp = sp.sp_stop -. sp.sp_start -. sp.sp_children

(* Self seconds per span name over the spans with ids in
   [since, until). *)
let self_by_name ?(since = 0) ?(until = max_int) () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      if sp.sp_id >= since && sp.sp_id < until then
        Hashtbl.replace tbl sp.sp_name
          (self_s sp
          +. Option.value ~default:0. (Hashtbl.find_opt tbl sp.sp_name)))
    !spans;
  tbl

let self_of tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_s\tdur_s\tself_s\n";
  let t0 = List.fold_left (fun a sp -> Float.min a sp.sp_start) infinity !spans in
  List.iter
    (fun sp ->
      Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.6f\t%.6f\n" sp.sp_id sp.sp_parent
        sp.sp_name (sp.sp_start -. t0) (sp.sp_stop -. sp.sp_start) (self_s sp))
    (List.rev !spans);
  close_out oc

(* ---- output --------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float v =
  if Float.is_nan v || Float.is_integer v && Float.abs v < 1e15 then
    if Float.is_nan v then "null" else Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = Printf.sprintf "%S" s

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string m.m_name) (json_float m.m_value)
             (json_string m.m_unit))
         ms)
  ^ "}"

(* A flat JSON object of name -> number, for the detail line. *)
let fields_json kvs =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v))
         kvs)
  ^ "}"
