(* The per-layer metrics of a traced run, with their units.  A workload
   reports 0 for a layer it does not exercise. *)

let pass_names =
  [ "canonicalize"; "simplify-cfg"; "sccp"; "gvn"; "condelim"; "readelim";
    "pea"; "dce"; "dbds" ]

let all =
  [
    ("lang.ms", "ms");
    ("lang.kb_per_s", "kB/s");
    ("lang.mwords", "Mwords");
    ("inline.ms", "ms");
    ("optimize.ms", "ms");
    ("optimize.mwords", "Mwords");
    ("dst.ms", "ms");
    ("dst.candidates", "count");
    ("tradeoff.accept_ratio", "ratio");
    ("dbds.duplications", "count");
    ("dbds.iterations", "count");
  ]
  @ List.concat_map
      (fun n ->
        [
          (Printf.sprintf "pass.%s.ms" n, "ms");
          (Printf.sprintf "pass.%s.work" n, "units");
          (Printf.sprintf "pass.%s.fired_ratio" n, "ratio");
        ])
      pass_names
  @ [
      ("analyses.hit_rate", "ratio");
      ("pool.busy_share", "ratio");
      ("pool.wall_ms", "ms");
      ("digest.ms", "ms");
      ("store.get_ms", "ms");
      ("store.put_ms", "ms");
      ("store.hit_rate", "ratio");
      ("broker.submit_ms_p50", "ms");
      ("broker.submit_ms_p99", "ms");
      ("broker.coalesced", "count");
      ("broker.compiles", "count");
      ("wire.ms_p50", "ms");
      ("trace.unaccounted_ms", "ms");
      ("trace.unaccounted_share", "ratio");
      ("trace.overhead", "ratio");
    ]

let unit_of n = List.assoc n all

(* Every per-layer metric, in table order, 0 where [figs] has none. *)
let complete figs =
  List.map
    (fun (n, _) -> (n, Option.value ~default:0. (List.assoc_opt n figs)))
    all
