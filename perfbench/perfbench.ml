(* perfbench — the end-to-end and per-layer benchmark of the product path.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Workloads (see BENCHMARK.json for why each was chosen):
     paper-suite        the 8 dynamic paper programs, source to checked
                        simulation, round-robin in a seeded order
     scale-compile      Gen.Scale.source 1200, source to verified,
                        optimized IR and a checked simulation
     daemon-edit-query  a concurrent in-process Dispatch serving one
                        scale1200 document to an editor and a querier

   With --trace 0 the last stdout line carries every end-to-end metric
   of BENCHMARK.json; with --trace 1 every per-layer metric, and the
   spans are written as Chrome trace-event JSON under .bench_build/.
   Metric names and units are read from BENCHMARK.json (run from the
   repository root). The line before it is a report with the run's
   context (seed, nproc, OCaml version, sample counts). *)

open Support

type args = { workload : string; seed : int; seconds : float; trace : bool }

let workloads = [ "paper-suite"; "scale-compile"; "daemon-edit-query" ]

(* Setup runs at least [setup_reps] times per run, and again until
   [setup_budget_s] seconds have gone into it (at most [setup_max]
   times); setup_s is the median. A cheap setup is repeated more, so its
   median rests on more than three short samples. *)
let setup_reps = 3
let setup_budget_s = 1.5
let setup_max = 25

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> die "unexpected argument %S" a)
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then
    die "--workload must be one of %s" (String.concat ", " workloads);
  if !seed < 0 then die "--seed must be >= 0";
  if !seconds <= 0.0 then die "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* (name, unit) of every end-to-end and per-layer metric. *)
let catalogue () =
  let j =
    try Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with Sys_error e | Json.Parse_error e -> die "cannot read BENCHMARK.json: %s" e
  in
  let metrics key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" key)
        l
    | _ -> die "BENCHMARK.json: no %s list" key
  in
  (metrics "end_to_end", metrics "per_layer")

(* Run [f] as often as the constants above say and return the last
   value with the median wall time in seconds. Each earlier value is
   [dispose]d and dropped before the next setup, which starts after a
   full major collection, so no setup pays for the data or the garbage
   of the ones before. *)
let timed_setup ?(dispose = ignore) f =
  let last = ref None and times = ref [] and spent = ref 0.0 in
  while
    List.length !times < setup_reps
    || (!spent < setup_budget_s && List.length !times < setup_max)
  do
    Option.iter dispose !last;
    last := None;
    Gc.full_major ();
    let t0 = Clock.now_ms () in
    last := Some (f ());
    let s = (Clock.now_ms () -. t0) /. 1000.0 in
    times := s :: !times;
    spent := !spent +. s
  done;
  (Option.get !last, Stats.median !times)

type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  report : (string * Json.t) list;
}

(* An op's latency percentile, with how many samples lie beyond it. *)
let percentiles name lat qs =
  let a = Stats.sorted lat in
  List.concat_map
    (fun (label, q) ->
      [ (name ^ "_" ^ label, Json.Float (Stats.quantile a q));
        (name ^ "_" ^ label ^ "_beyond", Json.Int (Stats.beyond a q)) ])
    qs

let compile_workload args tr ~inline ~verify setup =
  let order, setup_s = timed_setup setup in
  let r =
    Compile.run tr ~seconds:args.seconds ~trace:args.trace
      ~cfg:(Compile.config ~inline) ~verify order
  in
  let all = r.Compile.warmup @ r.Compile.ops in
  let failed = List.length (List.filter (fun o -> not o.Compile.ok) all) in
  let lat = List.map (fun o -> o.Compile.ms) r.Compile.ops in
  let n = List.length r.Compile.ops in
  (* Each input's median latency over the run, one entry per input. *)
  let per_input =
    Array.to_list
      (Array.map
         (fun i ->
           Stats.median
             (List.filter_map
                (fun o -> if o.Compile.prog = i.Compile.name then Some o.Compile.ms else None)
                r.Compile.ops))
         order)
  in
  let median_round_s = Stats.median r.Compile.round_ms /. 1000.0 in
  let round_kcycles =
    List.fold_left (fun acc o -> acc +. float_of_int o.Compile.sim_cycles) 0.0 r.Compile.warmup
    /. 1000.0
  in
  { attempted = List.length all;
    failed;
    e2e =
      [ ("setup_s", setup_s);
        ("ops_per_s", float_of_int (Array.length order) /. median_round_s);
        ("op_ms_p50", Stats.median per_input);
        ("heap_mb", Stats.median r.Compile.heap_mb) ];
    layers =
      (if args.trace then Compile.per_layer tr r ~round_len:(Array.length order) else []);
    report =
      [ ("programs", Json.List (Array.to_list (Array.map (fun i -> Json.String i.Compile.name) order)));
        ("ops", Json.Int n); ("rounds", Json.Int r.Compile.rounds);
        ("elapsed_s", Json.Float r.Compile.elapsed_s);
        ("nondeterministic_ops", Json.Int r.Compile.nondeterministic);
        ("sim_kcycles_per_round", Json.Float round_kcycles) ]
      @ percentiles "op_ms" lat [ ("p50", 0.5); ("p90", 0.9) ] }

let paper_suite args tr =
  compile_workload args tr ~inline:false ~verify:false (fun () ->
      let inputs =
        Array.of_list
          (List.map
             (fun (w : Workloads.Workload.t) ->
               Compile.reference ~name:w.Workloads.Workload.name w.Workloads.Workload.source)
             Workloads.Suite.dynamic)
      in
      Prng.shuffle (Prng.create (Int64.of_int (args.seed + 1))) inputs;
      inputs)

let scale_compile args tr =
  compile_workload args tr ~inline:true ~verify:true (fun () ->
      [| Compile.reference ~name:"scale1200" (Gen.Scale.source 1200) |])

let daemon args tr =
  let (source, started), setup_s =
    timed_setup
      ~dispose:(fun (_, (d, _)) -> Server.Dispatch.stop d)
      (fun () ->
        let source = Gen.Scale.source Daemon.procs in
        (source, Daemon.start Daemon.config source))
  in
  let r = Daemon.run tr ~seed:args.seed ~seconds:args.seconds ~trace:args.trace started source in
  let timed = List.filter (fun s -> not s.Daemon.s_warmup) r.Daemon.samples in
  let change = Daemon.latencies [ "change" ] timed in
  let query = Daemon.latencies Daemon.query_meths timed in
  let a = Stats.sorted change in
  let count meth = List.length (List.filter (fun s -> s.Daemon.s_meth = meth) timed) in
  { attempted = List.length r.Daemon.samples;
    failed = r.Daemon.check.Daemon.failed + r.Daemon.replay_failed;
    e2e =
      [ ("setup_s", setup_s);
        ("ops_per_s", Daemon.rate timed);
        ("op_ms_p50", Stats.quantile a 0.5);
        ("heap_mb", Stats.median r.Daemon.heap_mb) ];
    layers = r.Daemon.layers;
    report =
      [ ("requests", Json.Int (List.length timed));
        ("changes", Json.Int (count "change"));
        ("alias", Json.Int (count "alias"));
        ("modref", Json.Int (count "modref"));
        ("elapsed_s", Json.Float r.Daemon.elapsed_s) ]
      @ percentiles "change_ms" change [ ("p50", 0.5); ("p90", 0.9) ]
      @ percentiles "query_ms" query [ ("p50", 0.5); ("p99", 0.99) ] }

let trace_file args =
  let dir = Filename.concat ".bench_build" "perfbench" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ ".bench_build"; dir ];
  Filename.concat dir (Printf.sprintf "trace-%s-%d.json" args.workload args.seed)

let () =
  let args = parse_args () in
  let e2e_names, layer_names = catalogue () in
  let tr = Trace.create () in
  let o =
    match args.workload with
    | "paper-suite" -> paper_suite args tr
    | "scale-compile" -> scale_compile args tr
    | _ -> daemon args tr
  in
  let names, values =
    if args.trace then (layer_names, o.layers) else (e2e_names, o.e2e)
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k names) then die "metric %s is not in BENCHMARK.json" k)
    values;
  let trace_out =
    if args.trace then begin
      let file = trace_file args in
      Trace.write_chrome (Trace.spans tr) ~file;
      [ ("trace_file", Json.String file) ]
    end
    else []
  in
  let report =
    Json.Obj
      ([ ("workload", Json.String args.workload); ("seed", Json.Int args.seed);
         ("seconds", Json.Float args.seconds); ("trace", Json.Bool args.trace);
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("attempted", Json.Int o.attempted); ("failed", Json.Int o.failed);
         ("error_rate", Json.Float (float_of_int o.failed /. float_of_int (max 1 o.attempted))) ]
      @ o.report @ trace_out)
  in
  print_endline (Json.to_string report);
  (* Rendered by hand: Json.to_string keeps 6 significant digits, and
     the values must carry all of theirs. *)
  let metric (name, unit) =
    (* Layers a workload does not exercise report 0. *)
    let v = Option.value (List.assoc_opt name values) ~default:0.0 in
    if not (Float.is_finite v) then die "metric %s is not finite" name;
    Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}"
      (Json.to_string (Json.String name)) v (Json.to_string (Json.String unit))
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat "," (List.map metric names))
