(* Benchmark entry point:

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--dbdsc PATH]

   Runs one workload for about S seconds, checks every output, and
   prints as its last line one JSON object: correct, attempted, failed
   and the metrics (end-to-end ones untraced, per-layer ones with
   --trace 1).  The line before it holds the run's detail: nproc, the
   calibration kernel's raw speed and the raw time next to each
   calibrated one. *)

open Util

let usage =
  "bench.exe --workload aot-corpus|aot-large|service-mix --seed N --seconds \
   S --trace 0|1 [--dbdsc PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and dbdsc = ref "_build/default/bin/dbdsc.exe" in
  let rss_probe = ref false and kernel_helper = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--dbdsc", Arg.Set_string dbdsc, "PATH compiler binary (service-mix)");
      ( "--rss-probe",
        Arg.Set rss_probe,
        " compile an AOT workload's inputs once, print the peak RSS in MiB" );
      ( "--kernel-helper",
        Arg.Set kernel_helper,
        " run the calibration kernel once for each line read, print its \
         seconds" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 in
  if !kernel_helper then begin
    serve_kernel ();
    exit 0
  end;
  (if !rss_probe then
     let spec = if !workload = "aot-large" then Aot.large else Aot.corpus in
     Printf.printf "%.17g\n" (Aot.rss_probe spec ~seed:!seed);
     exit 0);
  (* The kernel's first runs in a fresh process pay for touching a new
     heap; none of them calibrates anything. *)
  for _ = 1 to 3 do
    ignore (kernel_body ())
  done;
  let r =
    match !workload with
    | "aot-corpus" -> Aot.run Aot.corpus ~seed:!seed ~seconds:!seconds ~trace
    | "aot-large" -> Aot.run Aot.large ~seed:!seed ~seconds:!seconds ~trace
    | "service-mix" ->
        Svc.run ~dbdsc:!dbdsc ~seed:!seed ~seconds:!seconds ~trace
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.Aot.errors;
  if trace then begin
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    write_spans (Printf.sprintf ".perfbench/spans-%s.tsv" !workload)
  end;
  let kernel_stats name nominal ks =
    if ks = [] then []
    else
      [
        (name ^ "_nominal_ms", nominal *. 1000.);
        (name ^ "_ms_median", median ks *. 1000.);
        (name ^ "_runs", float_of_int (List.length ks));
      ]
  in
  let detail =
    (("nproc", float_of_int (nproc ()))
     :: kernel_stats "kernel" kernel_nominal_s !kernel_samples)
    @ kernel_stats "kernel_par" kernel_par_nominal_s !kernel_par_samples
    @ r.Aot.detail
  in
  Printf.printf "{\"detail\": %s}\n" (fields_json detail);
  let metrics =
    if trace then
      List.map
        (fun (n, v) -> metric n (Layers.unit_of n) v)
        (Layers.complete r.Aot.layer)
    else r.Aot.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    r.Aot.correct r.Aot.attempted r.Aot.failed (metrics_json metrics)
