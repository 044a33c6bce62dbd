(* Declarative scheduling of Pass.t values over one program, replacing the
   seed pipeline's hand-written analyze/run/re-analyze sequencing. *)

open Support
open Tbaa

type item =
  | Run of Pass.t
  | Fixpoint of { passes : Pass.t list; max_rounds : int }

(* ------------------------------------------------------------------ *)
(* Pass configuration                                                  *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    devirt_inline : bool;
    licm : bool;
    pre : bool;
    slf : bool;
    rle : bool;
    copyprop : bool;
    dse : bool;
    local_cse : bool;
  }

  let none =
    { devirt_inline = false; licm = false; pre = false; slf = false;
      rle = false; copyprop = false; dse = false; local_cse = false }

  let to_stats c =
    [ ("devirt_inline", Bool.to_int c.devirt_inline);
      ("licm", Bool.to_int c.licm); ("pre", Bool.to_int c.pre);
      ("slf", Bool.to_int c.slf); ("rle", Bool.to_int c.rle);
      ("copyprop", Bool.to_int c.copyprop); ("dse", Bool.to_int c.dse);
      ("local_cse", Bool.to_int c.local_cse) ]
end

(* ------------------------------------------------------------------ *)
(* Oracle-counter arithmetic (shared by the per-procedure merge and the
   report aggregation below)                                           *)
(* ------------------------------------------------------------------ *)

let add_oracle_counters ~into (o : Oracle_cache.counters) =
  into.Oracle_cache.compat_queries <-
    into.Oracle_cache.compat_queries + o.Oracle_cache.compat_queries;
  into.Oracle_cache.compat_misses <-
    into.Oracle_cache.compat_misses + o.Oracle_cache.compat_misses;
  into.Oracle_cache.alias_queries <-
    into.Oracle_cache.alias_queries + o.Oracle_cache.alias_queries;
  into.Oracle_cache.alias_misses <-
    into.Oracle_cache.alias_misses + o.Oracle_cache.alias_misses;
  into.Oracle_cache.class_queries <-
    into.Oracle_cache.class_queries + o.Oracle_cache.class_queries;
  into.Oracle_cache.class_misses <-
    into.Oracle_cache.class_misses + o.Oracle_cache.class_misses;
  into.Oracle_cache.store_queries <-
    into.Oracle_cache.store_queries + o.Oracle_cache.store_queries;
  into.Oracle_cache.store_misses <-
    into.Oracle_cache.store_misses + o.Oracle_cache.store_misses

(* ------------------------------------------------------------------ *)
(* The per-procedure execution engine                                  *)
(* ------------------------------------------------------------------ *)

(* One memoized result of running one per-procedure pass execution (one
   schedule slot) over one procedure: the output body plus everything the
   merge consumed, keyed by the *input* fingerprint and the allocator
   state. A recorded entry replayed under identical conditions is
   byte-for-byte what the live run would produce, so [rerun] may splice
   it without re-running the pass. *)
type slot_entry = {
  e_in_fp : int;  (* Fingerprint.proc of the input body *)
  e_out_fp : int;  (* Fingerprint.proc of the output body (= of a splice) *)
  e_index : int;  (* position in prog_procs (the allocator lane) *)
  e_nprocs : int;  (* lane stride *)
  e_start : int;  (* program.next_var_id at pass start *)
  e_count : int;  (* temps this procedure allocated *)
  e_entry : int;
  e_locals : Ir.Reg.var list;
  e_blocks : (Ir.Instr.t list * Ir.Instr.terminator) array;  (* output *)
  e_outcome : Pass.outcome;
  e_counters : Oracle_cache.counters;
  e_claims : Claims.t option;  (* per-procedure ledger, if one was kept *)
}

type memo_slot = {
  m_tbl : (string, slot_entry) Hashtbl.t;  (* keyed by procedure name *)
  m_valid : Ir.Cfg.proc -> bool;  (* dependency gate beyond the fingerprint *)
  m_fps : (string, int) Hashtbl.t option;
      (* when set (by [rerun], only for duplicate-free programs): each
         procedure's current fingerprint, carried across schedule slots —
         a splice advances it to [e_out_fp], a live run to the fresh
         body's fingerprint — so each slot skips re-walking every body.
         Missing names are computed (and recorded) on demand. *)
  m_reused : int ref;
  m_reran : int ref;
}

let splice proc (e : slot_entry) =
  let open Ir in
  let nb = Array.length e.e_blocks in
  while Cfg.n_blocks proc < nb do
    ignore (Cfg.new_block proc (Instr.Treturn None))
  done;
  if Cfg.n_blocks proc > nb then Vec.truncate proc.Cfg.pr_blocks nb;
  Array.iteri
    (fun bi (instrs, term) ->
      let b = Cfg.block proc bi in
      b.Cfg.b_instrs <- instrs;
      b.Cfg.b_term <- term)
    e.e_blocks;
  proc.Cfg.pr_entry <- e.e_entry;
  proc.Cfg.pr_locals <- e.e_locals

let snapshot_blocks proc =
  Array.init (Ir.Cfg.n_blocks proc) (fun i ->
      let b = Ir.Cfg.block proc i in
      (b.Ir.Cfg.b_instrs, b.Ir.Cfg.b_term))

(* Run a per-procedure pass over every procedure — the generic derivation
   of the old whole-program [run].

   Determinism: procedures are independent (each [run_proc] reads only
   its own procedure plus shared read-only analysis state), so the merge
   in program order makes parallel execution byte-identical to
   sequential. The three shared-state hazards are each closed off:

   - fresh variables come from a laced allocator (procedure [i]'s [k]-th
     temp is [start + i + k*n]), used identically at any domain count;
   - every procedure gets a private effect index ({!Mem_index}) over a
     private memoizing oracle cache over the raw analysis oracle (the raw
     closures are pure), and a private claims ledger, merged in program
     order afterwards. The index lives in the context's per-position
     slot until the analysis is invalidated, so consecutive passes over
     one revision share its answers; it is built and filled only by the
     worker that owns the procedure, so its contents — and the oracle
     counts charged to each pass — do not depend on the domain count;
   - the [Apath]/[Aloc] intern tables are always mutex-guarded, and
     dataflow's cumulative counters are atomics.

   A fault-injected or query-logged context instead runs on the shared
   sequential path (one cached oracle, the caller's ledger, the plain
   program allocator): fault statistics and "once per distinct pair" log
   semantics are whole-program notions that per-procedure caches would
   change. *)
let exec_per_procedure ?memo (ctx : Pass.context) program run_proc =
  let procs = Array.of_list program.Ir.Cfg.prog_procs in
  let n = Array.length procs in
  if n = 0 then Pass.unchanged []
  else if Option.is_some ctx.Pass.fault || Option.is_some ctx.Pass.oracle_log
  then begin
    (* This path mutates procedures without maintaining the carried
       fingerprints; drop them so later slots recompute. *)
    (match memo with
    | Some { m_fps = Some tbl; _ } -> Hashtbl.reset tbl
    | _ -> ());
    let oracle = Pass.oracle ctx program and modref = Pass.modref ctx program in
    let witnesses = Option.is_some ctx.Pass.claims in
    let outcomes = Array.make n (Pass.unchanged []) in
    for i = 0 to n - 1 do
      let pc =
        { Pass.pc_program = program;
          pc_index = Mem_index.create ~witnesses oracle modref;
          pc_claims = ctx.Pass.claims;
          pc_fresh =
            (fun ~name ~ty ~kind -> Ir.Cfg.fresh_var program ~name ~ty ~kind) }
      in
      outcomes.(i) <- run_proc pc procs.(i)
    done;
    Pass.merge_outcomes outcomes
  end
  else begin
    let start = program.Ir.Cfg.next_var_id in
    let want_claims = ctx.Pass.claims <> None in
    let fps =
      match memo with
      | Some { m_fps = Some tbl; _ } ->
        Array.map
          (fun proc ->
            let nm = Ident.name proc.Ir.Cfg.pr_name in
            match Hashtbl.find_opt tbl nm with
            | Some fp -> fp
            | None ->
              let fp = Ir.Fingerprint.proc proc in
              Hashtbl.replace tbl nm fp;
              fp)
          procs
      | Some _ -> Array.map Ir.Fingerprint.proc procs
      | None -> [||]  (* read only by the memo lookups and records below *)
    in
    (* Which procedures can replay a memoized result. *)
    let hits = Array.make n None in
    (match memo with
    | Some m ->
      Array.iteri
        (fun i proc ->
          match Hashtbl.find_opt m.m_tbl (Ident.name proc.Ir.Cfg.pr_name) with
          | Some e
            when e.e_in_fp = fps.(i) && e.e_index = i && e.e_nprocs = n
                 && e.e_start = start
                 && ((not want_claims) || e.e_claims <> None)
                 && m.m_valid proc ->
            hits.(i) <- Some e
          | _ -> ())
        procs
    | None -> ());
    let live = ref [] in
    for i = n - 1 downto 0 do
      if hits.(i) = None then live := i :: !live
    done;
    let live = Array.of_list !live in
    let nlive = Array.length live in
    (* Shared read-only inputs, forced on the pre-pass program state
       (before any splice) and only when something actually runs. *)
    let raw, modref =
      if nlive = 0 then (None, None)
      else begin
        let raw = Pass.raw_oracle ctx program in
        let modref = Pass.modref ctx program in
        (* Force the engine's merged-effects table now — its lazy build
           mutates the engine, which must not happen concurrently. *)
        ignore (Modref.summary modref procs.(0).Ir.Cfg.pr_name);
        (Some raw, Some modref)
      end
    in
    let dummy_counters = Oracle_cache.fresh_counters () in
    let counts = Array.make n 0 in
    let outcomes = Array.make n (Pass.unchanged []) in
    let counters = Array.make n dummy_counters in
    let ledgers = Array.make n None in
    let fps_tbl =
      match memo with Some { m_fps; _ } -> m_fps | None -> None
    in
    Array.iteri
      (fun i h ->
        match h with
        | Some e ->
          splice procs.(i) e;
          (match fps_tbl with
          | Some tbl ->
            Hashtbl.replace tbl (Ident.name procs.(i).Ir.Cfg.pr_name) e.e_out_fp
          | None -> ());
          counts.(i) <- e.e_count;
          outcomes.(i) <- e.e_outcome;
          counters.(i) <- e.e_counters;
          ledgers.(i) <- e.e_claims
        | None -> ())
      hits;
    if nlive > 0 then begin
      let raw = Option.get raw and modref = Option.get modref in
      (* Effect indexes carry over from the previous pass while the
         analysis stands; each worker fills only its own slot. *)
      if Array.length ctx.Pass.index_memo <> n then
        ctx.Pass.index_memo <- Array.make n None;
      let slots = ctx.Pass.index_memo in
      let oname = Pass.oracle_name ctx.Pass.oracle_kind in
      let domains = if ctx.Pass.jobs <= 1 then 1 else min ctx.Pass.jobs nlive in
      let run_live j =
        let i = live.(j) in
        let proc = procs.(i) in
        let fresh ~name ~ty ~kind =
          let k = counts.(i) in
          counts.(i) <- k + 1;
          { Ir.Reg.v_id = start + i + (k * n); v_name = Ident.intern name;
            v_ty = ty; v_kind = kind }
        in
        let claims =
          if want_claims then Some (Claims.create ~oracle:oname) else None
        in
        ledgers.(i) <- claims;
        let c = Oracle_cache.fresh_counters () in
        counters.(i) <- c;
        let index =
          match slots.(i) with
          | Some s
            when s.Pass.ix_proc == proc
                 && ((not want_claims) || Mem_index.witnesses s.Pass.ix_index)
            ->
            s.Pass.ix_index
          | _ ->
            let index = Mem_index.create ~witnesses:want_claims raw modref in
            slots.(i) <- Some { Pass.ix_proc = proc; ix_index = index };
            index
        in
        (* A private cache for this run, built only if the index is
           missing an answer. *)
        Mem_index.set_oracle index (lazy (Oracle_cache.wrap ~counters:c raw));
        let pc =
          { Pass.pc_program = program;
            pc_index = index;
            pc_claims = claims;
            pc_fresh = fresh }
        in
        outcomes.(i) <- run_proc pc proc;
        (* A run that rewrote the procedure invalidates the analysis when
           the pass ends, and every index with it: drop this one now
           rather than carry it through the rest of the pass. Otherwise
           keep the index while it holds write answers; it answers any
           later question through the raw oracle until the next run
           installs its own cache. *)
        if outcomes.(i).Pass.mutated || not (Mem_index.release index raw)
        then slots.(i) <- None
      in
      Domain_pool.run ~domains nlive run_live
    end;
    (* Reserve the allocator lanes actually used: the highest id handed
       out is [start + (n-1) + (kmax-1)*n]. *)
    let kmax = Array.fold_left max 0 counts in
    program.Ir.Cfg.next_var_id <- start + (kmax * n);
    (* Deterministic merges, program order. *)
    Array.iter (fun c -> add_oracle_counters ~into:ctx.Pass.oracle_counters c) counters;
    (match ctx.Pass.claims with
    | Some dst ->
      Array.iter
        (function Some l -> Claims.absorb ~into:dst l | None -> ())
        ledgers
    | None -> ());
    (match memo with
    | Some m ->
      m.m_reused := !(m.m_reused) + (n - nlive);
      m.m_reran := !(m.m_reran) + nlive;
      Array.iter
        (fun i ->
          let proc = procs.(i) in
          let out_fp = Ir.Fingerprint.proc proc in
          (match m.m_fps with
          | Some tbl ->
            Hashtbl.replace tbl (Ident.name proc.Ir.Cfg.pr_name) out_fp
          | None -> ());
          Hashtbl.replace m.m_tbl
            (Ident.name proc.Ir.Cfg.pr_name)
            { e_in_fp = fps.(i); e_out_fp = out_fp; e_index = i; e_nprocs = n;
              e_start = start; e_count = counts.(i);
              e_entry = proc.Ir.Cfg.pr_entry;
              e_locals = proc.Ir.Cfg.pr_locals;
              e_blocks = snapshot_blocks proc; e_outcome = outcomes.(i);
              e_counters = counters.(i); e_claims = ledgers.(i) })
        live
    | None -> ());
    Pass.merge_outcomes outcomes
  end

let exec_pass ?memo ctx program (p : Pass.t) =
  match p.Pass.scope with
  | Pass.Whole_program run -> run ctx program
  | Pass.Per_procedure run_proc -> exec_per_procedure ?memo ctx program run_proc

(* ------------------------------------------------------------------ *)
(* Plain execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_one ?memo ctx program ~round (p : Pass.t) : Pass.report =
  let oracle_before = Oracle_cache.snapshot ctx.Pass.oracle_counters in
  let dataflow_before = Ir.Dataflow.counters () in
  let analyses_before = ctx.Pass.analyses_run in
  let t0 = Unix.gettimeofday () in
  let outcome = exec_pass ?memo ctx program p in
  let t1 = Unix.gettimeofday () in
  if outcome.Pass.mutated then Pass.invalidate ctx;
  { Pass.r_pass = p.Pass.name;
    r_round = round;
    r_time_ms = (t1 -. t0) *. 1000.0;
    r_changed = outcome.Pass.changed;
    r_stats = outcome.Pass.stats;
    r_oracle =
      Oracle_cache.diff ~before:oracle_before
        ~after:(Oracle_cache.snapshot ctx.Pass.oracle_counters);
    r_dataflow =
      Ir.Dataflow.diff_counters ~before:dataflow_before
        ~after:(Ir.Dataflow.counters ());
    r_analyses = ctx.Pass.analyses_run - analyses_before;
    r_failure = None }

let run_item ctx program acc = function
  | Run p -> run_one ctx program ~round:1 p :: acc
  | Fixpoint { passes; max_rounds } ->
    (* Iterate the group until no Transform pass finds work (Enabling
       passes keep canonicalizing forever and must not drive the loop). *)
    let rec go round acc =
      if round > max_rounds then acc
      else begin
        let progressed = ref false in
        let acc =
          List.fold_left
            (fun acc p ->
              let r = run_one ctx program ~round p in
              if r.Pass.r_changed && p.Pass.role = Pass.Transform then
                progressed := true;
              r :: acc)
            acc passes
        in
        if !progressed then go (round + 1) acc else acc
      end
    in
    go 1 acc

let run ctx program items =
  List.rev (List.fold_left (run_item ctx program) [] items)

(* ------------------------------------------------------------------ *)
(* Guarded execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Defense in depth: each pass runs against a rollback snapshot. A pass
   that raises, or (with [verify]) leaves the IR failing {!Ir.Verify}, is
   undone — the program reverts to the last-good IR — and quarantined:
   later executions of the same pass are skipped, with the original
   failure echoed in their reports. The schedule keeps going, so one
   broken pass degrades the optimization level instead of the run. *)

let failure_report ~round ~reason (p : Pass.t) =
  { Pass.r_pass = p.Pass.name;
    r_round = round;
    r_time_ms = 0.0;
    r_changed = false;
    r_stats = [];
    r_oracle = Oracle_cache.fresh_counters ();
    r_dataflow = { Ir.Dataflow.solves = 0; iterations = 0 };
    r_analyses = 0;
    r_failure = Some reason }

let validation_failure errs =
  let n = List.length errs in
  Printf.sprintf "IR validation failed (%d error%s), e.g. %s" n
    (if n = 1 then "" else "s")
    (Ir.Verify.error_to_string (List.hd errs))

let run_one_guarded ctx program ~verify ~quarantine ~round (p : Pass.t) =
  match Hashtbl.find_opt quarantine p.Pass.name with
  | Some earlier ->
    failure_report ~round ~reason:("quarantined: " ^ earlier) p
  | None ->
    let snap = Ir.Cfg.snapshot program in
    let roll_back reason report =
      Ir.Cfg.restore program snap;
      Pass.invalidate ctx;
      Hashtbl.replace quarantine p.Pass.name reason;
      { report with Pass.r_changed = false; r_failure = Some reason }
    in
    (match run_one ctx program ~round p with
    | report ->
      if not verify then report
      else (
        match Ir.Verify.program program with
        | [] -> report
        | errs -> roll_back (validation_failure errs) report)
    | exception exn ->
      let reason = "exception: " ^ Printexc.to_string exn in
      roll_back reason (failure_report ~round ~reason p))

let run_guarded ?(verify = false) ctx program items =
  let quarantine : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let run_item acc = function
    | Run p -> run_one_guarded ctx program ~verify ~quarantine ~round:1 p :: acc
    | Fixpoint { passes; max_rounds } ->
      let rec go round acc =
        if round > max_rounds then acc
        else begin
          let progressed = ref false in
          let acc =
            List.fold_left
              (fun acc p ->
                let r = run_one_guarded ctx program ~verify ~quarantine ~round p in
                if r.Pass.r_changed && p.Pass.role = Pass.Transform then
                  progressed := true;
                r :: acc)
              acc passes
          in
          if !progressed then go (round + 1) acc else acc
        end
      in
      go 1 acc
  in
  List.rev (List.fold_left run_item [] items)

let failures reports =
  List.filter_map
    (fun r ->
      match r.Pass.r_failure with
      | Some why -> Some (r.Pass.r_pass, why)
      | None -> None)
    reports

(* ------------------------------------------------------------------ *)
(* Incremental re-execution                                            *)
(* ------------------------------------------------------------------ *)

(* A session keeps, across runs of the same schedule over successive
   versions of one program: the shared analysis context (whose engine
   makes mid-pipeline re-analyses incremental), a per-(schedule slot,
   procedure) memo of pass results, a gate engine fed only the
   *pre-optimization* program versions, and the previous version's
   fingerprints.

   Validity of a memoized result for procedure P at a slot requires
   more than P's input fingerprint: P's transform also consulted the
   type-level oracle (a whole-program artifact) and its callees' merged
   mod-ref summaries. The gate engine's update report covers the former —
   if the oracles' canonical inputs changed at all, everything is
   flushed — and the reverse-call-graph closure of the edited procedures
   covers the latter: summaries flow callee-to-caller, so only edited
   procedures and their (transitive) callers can observe an edit while
   the oracles stand. *)
type session = {
  s_ctx : Pass.context;
  s_slots : (int, (string, slot_entry) Hashtbl.t) Hashtbl.t;
  s_engines : (int, Engine.t) Hashtbl.t;
      (* per slot: the context's analysis engine frozen at that pipeline
         position (see [run_one_slot]) *)
  mutable s_gate : Engine.t option;
  mutable s_prev_fps : (string, int) Hashtbl.t;
  mutable s_runs : int;
  mutable s_reused : int;  (* last run: (pass execution, proc) splices *)
  mutable s_reran : int;  (* last run: (pass execution, proc) live runs *)
  mutable s_flushes : int;  (* full memo flushes (oracle/callgraph churn) *)
}

let session ctx =
  { s_ctx = ctx; s_slots = Hashtbl.create 16; s_engines = Hashtbl.create 16;
    s_gate = None; s_prev_fps = Hashtbl.create 64; s_runs = 0; s_reused = 0;
    s_reran = 0; s_flushes = 0 }

let session_context s = s.s_ctx

let fingerprints program =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      Hashtbl.replace tbl (Ident.name p.Ir.Cfg.pr_name) (Ir.Fingerprint.proc p))
    program.Ir.Cfg.prog_procs;
  tbl

(* The procedures whose memoized pass results an edit may invalidate:
   the edited (or added/removed) procedures plus everything that can
   reach them in the call graph. *)
let contaminated_set program ~dirty =
  let tainted : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun nm -> Hashtbl.replace tainted nm ()) dirty;
  (* callee name -> caller names, over the current program *)
  let callers : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let caller = Ident.name p.Ir.Cfg.pr_name in
      Ident.Set.iter
        (fun callee ->
          let c = Ident.name callee in
          Hashtbl.replace callers c
            (caller :: Option.value (Hashtbl.find_opt callers c) ~default:[]))
        (Ir.Callgraph.callees program p))
    program.Ir.Cfg.prog_procs;
  let rec close = function
    | [] -> ()
    | nm :: rest ->
      let callers_of = Option.value (Hashtbl.find_opt callers nm) ~default:[] in
      let fresh =
        List.filter (fun c -> not (Hashtbl.mem tainted c)) callers_of
      in
      List.iter (fun c -> Hashtbl.replace tainted c ()) fresh;
      close (List.rev_append fresh rest)
  in
  close dirty;
  tainted

let flush_memo s =
  Hashtbl.reset s.s_slots;
  s.s_flushes <- s.s_flushes + 1

let rerun s program items =
  s.s_runs <- s.s_runs + 1;
  s.s_reused <- 0;
  s.s_reran <- 0;
  let ctx = s.s_ctx in
  let cur_fps = fingerprints program in
  (* The dependency gate for this run's memo lookups. *)
  let valid =
    match s.s_gate with
    | None ->
      s.s_gate <-
        Some
          (Engine.create
             ~config:{ Engine.default_config with Engine.world = ctx.Pass.world }
             program);
      flush_memo s;
      fun _ -> false
    | Some e -> (
      let e = Engine.update e program in
      s.s_gate <- Some e;
      match Engine.last_update e with
      | Some r
        when (not r.Engine.ur_oracles_rebuilt)
             && not r.Engine.ur_callgraph_rebuilt ->
        let dirty = ref [] in
        Hashtbl.iter
          (fun nm fp ->
            match Hashtbl.find_opt s.s_prev_fps nm with
            | Some old when old = fp -> ()
            | _ -> dirty := nm :: !dirty)
          cur_fps;
        Hashtbl.iter
          (fun nm _ ->
            if not (Hashtbl.mem cur_fps nm) then dirty := nm :: !dirty)
          s.s_prev_fps;
        let tainted = contaminated_set program ~dirty:!dirty in
        fun proc -> not (Hashtbl.mem tainted (Ident.name proc.Ir.Cfg.pr_name))
      | _ ->
        (* The type-level facts (or the call graph) moved: every cached
           answer is suspect. Start over. *)
        flush_memo s;
        fun _ -> false)
  in
  s.s_prev_fps <- cur_fps;
  Pass.invalidate ctx;
  (* Fingerprints carried from slot to slot (see [memo_slot.m_fps]).
     Seeded from the input fingerprints — computed over exactly the
     program state the first slot will see. Only sound when names are
     unique: the table is name-keyed, and a duplicate would let one
     procedure's fingerprint vouch for another's body. *)
  let live_fps =
    let nprocs = List.length program.Ir.Cfg.prog_procs in
    if Hashtbl.length cur_fps = nprocs then Some (Hashtbl.copy cur_fps)
    else None
  in
  let slot = ref 0 in
  let run_one_slot ~round p =
    let k = !slot in
    incr slot;
    let memo =
      match p.Pass.scope with
      | Pass.Per_procedure _ ->
        let tbl =
          match Hashtbl.find_opt s.s_slots k with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 64 in
            Hashtbl.add s.s_slots k t;
            t
        in
        Some
          { m_tbl = tbl; m_valid = valid; m_fps = live_fps;
            m_reused = ref 0; m_reran = ref 0 }
      | Pass.Whole_program _ -> None
    in
    (* Install this slot's private analysis engine, so a mid-pipeline
       re-analysis diffs against the *same pipeline position* of the
       previous run — where only the edited procedures differ — rather
       than against whatever state the rolling engine last saw (where
       every spliced body looks like an edit and the whole program gets
       re-summarized at every pass). When the context still holds a live
       analysis (the previous pass changed nothing), keep it: it already
       describes the current program state, and the slot engine will
       simply absorb a slightly larger diff whenever it is next used. *)
    (match Hashtbl.find_opt s.s_engines k with
    | Some e when not ctx.Pass.analysis_current ->
      ctx.Pass.engine_memo <- Some e
    | _ -> ());
    let r = run_one ?memo ctx program ~round p in
    (* A whole-program pass mutates procedures without maintaining the
       carried fingerprints; drop them so later slots recompute. *)
    (match p.Pass.scope with
    | Pass.Whole_program _ ->
      Option.iter (fun tbl -> Hashtbl.reset tbl) live_fps
    | Pass.Per_procedure _ -> ());
    (* First visit of a slot: freeze a private copy of the engine at this
       position. (The rolling engine object itself keeps flowing to the
       next unseen slot, so copies never alias.) Later visits mutate the
       installed engine in place — it is already the stored one. *)
    if not (Hashtbl.mem s.s_engines k) then
      Option.iter
        (fun e -> Hashtbl.replace s.s_engines k (Engine.copy e))
        ctx.Pass.engine_memo;
    (match memo with
    | Some m ->
      s.s_reused <- s.s_reused + !(m.m_reused);
      s.s_reran <- s.s_reran + !(m.m_reran)
    | None -> ());
    r
  in
  let run_item acc = function
    | Run p -> run_one_slot ~round:1 p :: acc
    | Fixpoint { passes; max_rounds } ->
      let rec go round acc =
        if round > max_rounds then acc
        else begin
          let progressed = ref false in
          let acc =
            List.fold_left
              (fun acc p ->
                let r = run_one_slot ~round p in
                if r.Pass.r_changed && p.Pass.role = Pass.Transform then
                  progressed := true;
                r :: acc)
              acc passes
          in
          if !progressed then go (round + 1) acc else acc
        end
      in
      go 1 acc
  in
  List.rev (List.fold_left run_item [] items)

let session_stats s =
  Json.Obj
    [ ("runs", Json.Int s.s_runs); ("reused", Json.Int s.s_reused);
      ("reran", Json.Int s.s_reran); ("flushes", Json.Int s.s_flushes) ]

let session_counts s = (s.s_reused, s.s_reran)

(* ------------------------------------------------------------------ *)
(* The standard schedule                                               *)
(* ------------------------------------------------------------------ *)

let schedule (c : Config.t) =
  let items = [] in
  let items =
    if c.Config.devirt_inline then
      Fixpoint { passes = [ Devirt.pass; Inline.pass ]; max_rounds = 3 }
      :: items
    else items
  in
  (* LICM first: hoisting while loop bodies still contain the original
     loads maximizes what the later intra-block clients see. *)
  let items = if c.Config.licm then Run Licm.pass :: items else items in
  let items = if c.Config.pre then Run Pre.pass :: items else items in
  (* SLF before RLE: forwarding the stored atom directly beats routing
     the value through an RLE home temporary. *)
  let items = if c.Config.slf then Run Slf.pass :: items else items in
  (* PRE inserts partially-redundant loads for RLE to harvest, and copy
     propagation unlocks further RLE matches: RLE runs once up front, then
     again inside a copyprop fixpoint when copy propagation is on. *)
  let items = if c.Config.rle then Run Rle.pass :: items else items in
  let items =
    if c.Config.copyprop then
      if c.Config.rle then
        Fixpoint { passes = [ Copyprop.pass; Rle.pass ]; max_rounds = 3 }
        :: items
      else Run Copyprop.pass :: items
    else items
  in
  (* DSE last: the load-removing clients above erase readers, so stores
     go dead only once they have run. *)
  let items = if c.Config.dse then Run Dse.pass :: items else items in
  let items = if c.Config.local_cse then Run Local_cse.pass :: items else items in
  List.rev items

(* ------------------------------------------------------------------ *)
(* Report aggregation                                                  *)
(* ------------------------------------------------------------------ *)

let reports_for name reports =
  List.filter (fun r -> r.Pass.r_pass = name) reports

let ran name reports = reports_for name reports <> []

let sum_stat name stat reports =
  List.fold_left
    (fun acc r -> acc + Pass.stat r stat)
    0 (reports_for name reports)

let first_stat name stat reports =
  match reports_for name reports with
  | [] -> 0
  | r :: _ -> Pass.stat r stat

let total_time_ms reports =
  List.fold_left (fun acc r -> acc +. r.Pass.r_time_ms) 0.0 reports

let oracle_counters reports =
  let c = Oracle_cache.fresh_counters () in
  List.iter (fun r -> add_oracle_counters ~into:c r.Pass.r_oracle) reports;
  c
