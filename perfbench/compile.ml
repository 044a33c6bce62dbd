(* The two compile workloads: each op takes one MiniM3 program from
   source through the product path — parse, typecheck, lower, engine,
   every optimizer schedule item, (optionally) the IR verifier, and the
   simulator — and checks the simulated output against the unoptimized
   program's reference run, computed once in setup.

   Every layer is entered through its public function, so the traced
   run can wrap each call in a span from the outside. The optimizer runs
   one [Pass_manager.run] per schedule item on one shared context, the
   same fold [Pass_manager.run] performs over the whole schedule. *)

open Support

type input = {
  name : string;
  source : string;
  expect_output : string;
  expect_halted : bool;
}

(* SMFieldTypeRefs, closed world, sequential; LICM, PRE, SLF, RLE,
   copyprop+RLE and DSE, plus the devirt+inline fixpoint when [inline]. *)
let config ~inline =
  { Opt.Pipeline.oracle_kind = Opt.Pipeline.Osm_field_type_refs;
    world = Tbaa.World.Closed;
    passes =
      { Opt.Pass_manager.Config.none with
        Opt.Pass_manager.Config.devirt_inline = inline; licm = true;
        pre = true; slf = true; rle = true; copyprop = true; dse = true };
    jobs = 1 }

let item_name = function
  | Opt.Pass_manager.Run p -> p.Opt.Pass.name
  | Opt.Pass_manager.Fixpoint { passes; _ } ->
    String.concat "_" (List.map (fun p -> p.Opt.Pass.name) passes)

(* The schedule items the per-layer metrics name; an item a workload's
   configuration does not schedule reports zeros. *)
let items = [ "devirt_inline"; "licm"; "pre"; "slf"; "rle"; "copyprop_rle"; "dse" ]

(* Each pass's headline counter; an item's [applied] sums them over all
   of its executions (both passes of a fixpoint, every round). *)
let main_counter = function
  | "devirt" -> "resolved"
  | "inline" -> "inlined"
  | "licm" -> "hoisted"
  | "pre" -> "inserted"
  | "slf" -> "forwarded"
  | "rle" -> "eliminated"
  | "copyprop" -> "replaced"
  | "dse" -> "removed"
  | _ -> ""

let applied reports =
  List.fold_left
    (fun n r -> n + Opt.Pass.stat r (main_counter r.Opt.Pass.r_pass))
    0 reports

let ir_instrs (p : Ir.Cfg.program) =
  List.fold_left (fun n proc -> n + Ir.Cfg.instr_count proc) 0 p.Ir.Cfg.prog_procs

let reference ~name source =
  let out = Sim.Interp.run_reference (Ir.Lower.lower_string ~file:name source) in
  { name; source; expect_output = out.Sim.Interp.output;
    expect_halted = out.Sim.Interp.halted }

type op = {
  prog : string;
  ms : float;
  ok : bool;
  traced : bool;
  counts : (string * float) list;
      (** exact counts that must repeat for every op on the same program *)
  oracle_queries : int;
  oracle_hits : int;
  sim_instrs : int;
  sim_cycles : int;
}

let complain = ref 5

let fail_note prog msg =
  if !complain > 0 then begin
    decr complain;
    Printf.eprintf "perfbench: %s: %s\n%!" prog msg
  end

(* The major heap's size is sampled after every layer call into [heap]:
   a scale1200 run has only ~25 ops, and the size after each op swings
   with the collector's phase. *)
let run_op tr ~id ~cfg ~schedule ~verify ~heap inp =
  let span name f =
    let v = Trace.with_span tr ~op:id name f in
    heap := Stats.heap_mb () :: !heap;
    v
  in
  let counts = ref [] in
  let count k v = counts := (k, float_of_int v) :: !counts in
  let queries = ref 0 and hits = ref 0 in
  let t0 = Clock.now_ms () in
  let ok, sim_instrs, sim_cycles =
    try
      span "op" (fun () ->
          let ast =
            span "parse" (fun () ->
                Minim3.Parser.parse_module ~file:inp.name inp.source)
          in
          let tast = span "typecheck" (fun () -> Minim3.Typecheck.check_module ast) in
          let prog = span "lower" (fun () -> Ir.Lower.lower_program tast) in
          if tr.Trace.enabled then count "lower.ir_instrs" (ir_instrs prog);
          let engine = span "engine.create" (fun () -> Tbaa.Engine.create prog) in
          let ctx = Opt.Pipeline.context_of_config cfg in
          ctx.Opt.Pass.engine_memo <- Some engine;
          List.iter
            (fun item ->
              let name = "opt." ^ item_name item in
              let reports =
                span name (fun () -> Opt.Pass_manager.run ctx prog [ item ])
              in
              count (name ^ ".applied") (applied reports);
              List.iter
                (fun r ->
                  queries := !queries + Tbaa.Oracle_cache.queries r.Opt.Pass.r_oracle;
                  hits := !hits + Tbaa.Oracle_cache.hits r.Opt.Pass.r_oracle)
                reports;
              if tr.Trace.enabled then count (name ^ ".ir_instrs") (ir_instrs prog))
            schedule;
          let errors = if verify then span "verify" (fun () -> Ir.Verify.program prog) else [] in
          let out = span "sim" (fun () -> Sim.Interp.run prog) in
          let ok =
            match errors with
            | e :: _ ->
              fail_note inp.name ("optimized IR fails verification: " ^ Ir.Verify.error_to_string e);
              false
            | [] when out.Sim.Interp.output <> inp.expect_output
                      || out.Sim.Interp.halted <> inp.expect_halted ->
              fail_note inp.name "simulated output differs from the reference";
              false
            | [] -> true
          in
          (ok, out.Sim.Interp.counters.Sim.Interp.instrs, out.Sim.Interp.cycles))
    with e ->
      fail_note inp.name ("op raised " ^ Printexc.to_string e);
      (false, 0, 0)
  in
  let ms = Clock.now_ms () -. t0 in
  count "sim.instrs" sim_instrs;
  count "sim.cycles" sim_cycles;
  (* Allocation per layer of this op, from its spans (newest first). *)
  if tr.Trace.enabled then begin
    let rec take = function
      | (s : Trace.span) :: rest when s.Trace.op = id ->
        counts := (s.Trace.name ^ ".words", s.Trace.words) :: !counts;
        take rest
      | _ -> ()
    in
    take tr.Trace.spans
  end;
  { prog = inp.name; ms; ok; traced = tr.Trace.enabled;
    counts = List.sort compare !counts; oracle_queries = !queries;
    oracle_hits = !hits; sim_instrs; sim_cycles }

type run = {
  ops : op list;  (** timed ops, in order *)
  warmup : op list;
  elapsed_s : float;
  rounds : int;
  round_ms : float list;
  heap_mb : float list;  (** major heap size after each layer call *)
  nondeterministic : int;  (** timed ops whose exact counts differed (failed) *)
}

(* Warm up with one round (every input once: the first op fills intern
   tables), then run whole rounds until [seconds] have passed. With
   [trace], odd rounds are traced and even ones are not, so the tracing
   overhead is measured on interleaved rounds of the same inputs. *)
let run tr ~seconds ~trace ~cfg ~verify (order : input array) =
  let schedule = Opt.Pipeline.schedule_of_config cfg in
  let next_id = ref 0 and heap_mb = ref [] in
  let round () =
    Array.to_list
      (Array.map
         (fun inp ->
           let id = !next_id in
           incr next_id;
           run_op tr ~id ~cfg ~schedule ~verify ~heap:heap_mb inp)
         order)
  in
  let warmup = round () in
  let t0 = Clock.now_ms () in
  let ops = ref [] and rounds = ref 0 and round_ms = ref [] in
  let min_rounds = if trace then 2 else 1 in
  while Clock.now_ms () -. t0 < seconds *. 1000.0 || !rounds < min_rounds do
    tr.Trace.enabled <- trace && !rounds mod 2 = 1;
    let r0 = Clock.now_ms () in
    let done_ = round () in
    round_ms := (Clock.now_ms () -. r0) :: !round_ms;
    ops := List.rev_append done_ !ops;
    incr rounds
  done;
  tr.Trace.enabled <- false;
  let elapsed_s = (Clock.now_ms () -. t0) /. 1000.0 in
  let ops = List.rev !ops in
  (* The determinism check: exact counts repeat for every op on the same
     program and tracing mode; an op whose counts differ fails. *)
  let first = Hashtbl.create 16 in
  let nondeterministic = ref 0 in
  let check o =
    match Hashtbl.find_opt first (o.prog, o.traced) with
    | None ->
      Hashtbl.replace first (o.prog, o.traced) o.counts;
      o
    | Some c when c = o.counts -> o
    | Some c ->
      incr nondeterministic;
      let diff =
        List.filter (fun kv -> not (List.mem kv c)) o.counts
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%.0f" k v)
      in
      fail_note o.prog ("exact counts differ between ops: " ^ String.concat " " diff);
      { o with ok = false }
  in
  let ops = List.map check ops in
  { ops; warmup; elapsed_s; rounds = !rounds; round_ms = !round_ms; heap_mb = !heap_mb;
    nondeterministic = !nondeterministic }

(* Per-layer metrics of the traced rounds: means per op of self time
   (ms) and self allocation (millions of minor words), exact counts per
   op, and the interleaved traced/untraced throughput. *)
let per_layer tr (r : run) ~round_len =
  let traced = List.filter (fun o -> o.traced) r.ops in
  let untraced = List.filter (fun o -> not o.traced) r.ops in
  let n = float_of_int (max 1 (List.length traced)) in
  let totals = Trace.self_totals (Trace.spans tr) in
  let self name =
    Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0.0)
  in
  let ms name = fst (self name) /. n in
  let mwords name = snd (self name) /. n /. 1e6 in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 traced in
  let mean_count k =
    sum (fun o -> Option.value (List.assoc_opt k o.counts) ~default:0.0) /. n
  in
  let layer name = [ (name ^ ".ms", ms name); (name ^ ".mwords", mwords name) ] in
  let opt_item item =
    let s = "opt." ^ item in
    [ (s ^ ".ms", ms s); (s ^ ".mwords", mwords s);
      (s ^ ".applied", mean_count (s ^ ".applied"));
      (s ^ ".ir_instrs", mean_count (s ^ ".ir_instrs")) ]
  in
  let queries = sum (fun o -> float_of_int o.oracle_queries) in
  let hits = sum (fun o -> float_of_int o.oracle_hits) in
  let sim_ms = fst (self "sim") in
  let sim_instrs = sum (fun o -> float_of_int o.sim_instrs) in
  let throughput ops =
    let ms = List.fold_left (fun acc o -> acc +. o.ms) 0.0 ops in
    float_of_int (List.length ops) /. (ms /. 1000.0)
  in
  let traced_ops_s = throughput traced and untraced_ops_s = throughput untraced in
  layer "parse" @ layer "typecheck" @ layer "lower"
  @ [ ("lower.ir_instrs", mean_count "lower.ir_instrs");
      ("engine.create_ms", ms "engine.create");
      ("engine.create_mwords", mwords "engine.create") ]
  @ List.concat_map opt_item items
  @ [ ("opt.oracle.queries", queries /. n);
      ("opt.oracle.hit_ratio", if queries > 0.0 then hits /. queries else 0.0);
      ("verify.ms", ms "verify") ]
  @ layer "sim"
  @ [ ("sim.minstrs_per_s", if sim_ms > 0.0 then sim_instrs /. sim_ms /. 1000.0 else 0.0);
      ("sim.instrs", sim_instrs /. n);
      ("sim.kcycles",
        sum (fun o -> float_of_int o.sim_cycles) /. n *. float_of_int round_len /. 1000.0);
      ("bench.self_ms", ms "op");
      ("trace.ops_per_s", traced_ops_s);
      ("trace.overhead_pct", 100.0 *. (untraced_ops_s -. traced_ops_s) /. untraced_ops_s) ]
