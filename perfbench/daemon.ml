(* The daemon workload: an in-process [Server.Dispatch] serving one
   scaleN document to two closed-loop clients, both driven from the
   calling thread through [Dispatch.submit]. The querier sends seeded
   [alias] batches and [modref] requests back to back, strictly
   alternating. The editor sends [change] requests — one seeded
   body-local constant edit each — one after every [queries_per_change]
   query responses. Each client sends its next request only when its
   previous response has arrived, and each request is timed from that
   response, so a query sent while a change runs waits for it.

   The 1:[queries_per_change] mix is an assumption, not a measured
   figure: it makes the changes and the queries each take about half of
   a cycle on the machine the benchmark was written on, so a regression
   on either side shows in the throughput. Pacing the editor by query
   count, not by a timer, keeps the mix the same however fast the
   machine runs.

   Checks: every response must be a [result], and every response must
   equal, byte for byte, the answer a serialized [handle_line] replay of
   the same stream gives at the same document revision. The replay
   applies the requests in the order their responses arrived, so every
   change lands at the same generation. Each client's request stream is
   a pure function of the seed (separate generators, per-client ids), so
   the replay regenerates it instead of keeping every request in memory;
   responses are kept as digests. *)

open Support
module Dispatch = Server.Dispatch

let doc = "scale"
let procs = 1200
let batch = 500
let queries_per_change = 400

(* No worker domains, the daemon's default: requests run one at a time
   on the calling thread, so a change holds up the querier for its whole
   duration. With a worker domain every request crossed threads twice,
   and on a 2-vCPU machine the wake-ups doubled a query's time and made
   it vary by 1.5x between runs. *)
let config =
  { Dispatch.default_config with Dispatch.workers = 0; optimize = true }

let rpc id meth params =
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int id);
         ("method", Json.String meth); ("params", Json.Obj params) ])

let open_line source =
  rpc 0 "open" [ ("name", Json.String doc); ("source", Json.String source) ]

(* A dispatcher with the document open; returns its memref count. *)
let start cfg source =
  let d = Dispatch.create ~config:cfg () in
  let resp = Dispatch.handle_line d (open_line source) in
  let memrefs =
    match Json.of_string resp with
    | v -> Option.bind (Json.member "result" v) (Json.member "memrefs")
    | exception Json.Parse_error _ -> None
  in
  match memrefs with
  | Some (Json.Int n) when n > 0 -> (d, n)
  | _ -> failwith ("perfbench: open failed: " ^ resp)

(* Offset and value of the constant K in each worker's "gN.a := x + K;". *)
let constant_sites source =
  let len = String.length source in
  let rec find i pat =
    let n = String.length pat in
    let rec matches k = k = n || (source.[i + k] = pat.[k] && matches (k + 1)) in
    if i + n > len then failwith ("perfbench: scale source has no " ^ pat)
    else if matches 0 then i + n
    else find (i + 1) pat
  in
  let from = ref 0 in
  Array.init procs (fun p ->
      let at = find (find !from (Printf.sprintf "PROCEDURE P%d ()" p)) " := x + " in
      let stop = ref at in
      while !stop < len && source.[!stop] >= '0' && source.[!stop] <= '9' do incr stop done;
      from := !stop;
      (at, int_of_string (String.sub source at (!stop - at))))

type req = {
  id : int;
  client : int;  (** 0 = editor, 1 = querier *)
  meth : string;
  line : string;
  edit : (int * int * string) option;  (** change only *)
}

(* The two request streams. The k-th request of client c has id
   2k + c + 1, so a stream regenerated from the same seed is
   byte-identical whatever the interleaving was. *)
type gen = {
  sites : (int * int) array;  (** (offset, value) of each worker's constant *)
  edit_rng : Prng.t;
  query_rng : Prng.t;
  memrefs : int;
  sent : int array;  (** requests generated per client *)
}

let gen ~seed ~memrefs source =
  { sites = constant_sites source;
    edit_rng = Prng.create (Int64.of_int ((seed * 2) + 1));
    query_rng = Prng.create (Int64.of_int ((seed * 2) + 2));
    memrefs; sent = [| 0; 0 |] }

let req g ~client ~meth ?edit params =
  let id = (2 * g.sent.(client)) + client + 1 in
  g.sent.(client) <- g.sent.(client) + 1;
  { id; client; meth; line = rpc id meth params; edit }

let next_change g =
  let p = Prng.int g.edit_rng procs in
  let at, old = g.sites.(p) in
  let v = 1 + Prng.int g.edit_rng 999 in
  let v = if v = old then v + 1 else v in
  let text = string_of_int v in
  let stop = at + String.length (string_of_int old) in
  let delta = String.length text - (stop - at) in
  Array.iteri
    (fun i (o, k) ->
      if i = p then g.sites.(i) <- (o, v)
      else if o > at then g.sites.(i) <- (o + delta, k))
    g.sites;
  req g ~client:0 ~meth:"change" ~edit:(at, stop, text)
    [ ("name", Json.String doc);
      ( "edits",
        Json.List
          [ Json.Obj
              [ ("start", Json.Int at); ("end", Json.Int stop);
                ("text", Json.String text) ] ] ) ]

(* The querier's requests alternate: alias, modref, alias, ... *)
let next_query g =
  if g.sent.(1) mod 2 = 1 then begin
    let proc =
      if Prng.bool g.query_rng then Printf.sprintf "P%d" (Prng.int g.query_rng procs)
      else Printf.sprintf "L%d" (Prng.int g.query_rng Gen.Scale.lib_procs)
    in
    req g ~client:1 ~meth:"modref" [ ("doc", Json.String doc); ("proc", Json.String proc) ]
  end
  else
    req g ~client:1 ~meth:"alias"
      [ ("doc", Json.String doc);
        ( "pairs",
          Json.List
            (List.init batch (fun _ ->
                 let i = Prng.int g.query_rng g.memrefs in
                 Json.List [ Json.Int i; Json.Int (Prng.int g.query_rng g.memrefs) ])) ) ]

let next g client = if client = 0 then next_change g else next_query g

(* One answered request, as the loop saw it. *)
type sample = {
  s_id : int;
  s_client : int;
  s_meth : string;
  s_warmup : bool;
  s_submit_ms : float;
  s_done_ms : float;
  s_result : bool;  (** the response is a JSON-RPC [result] for this id *)
  s_digest : Digest.t;
}

let client_name c = if c = 0 then "editor" else "querier"

let is_result id resp =
  String.starts_with ~prefix:(Printf.sprintf "{\"jsonrpc\":\"2.0\",\"id\":%d,\"result\":" id) resp

(* The closed loop. Responses are stamped in the respond callback and
   handed to the calling thread, which submits that client's next
   request: the querier's at once, the editor's once
   [queries_per_change] queries have been answered since its last
   change. A due change goes first, and the query sent with it is timed
   from the response that made it due, so its latency includes the
   change. Returns the samples in completion order. *)
let closed_loop d g ~seconds =
  let m = Mutex.create () and c = Condition.create () in
  let completed = Queue.create () in
  let submit ?(sent = Clock.now_ms ()) ~warmup r =
    Dispatch.submit d ~client:(client_name r.client) r.line ~respond:(fun line ->
        let t = Clock.now_ms () in
        Mutex.protect m (fun () ->
            Queue.push (r, warmup, sent, t, line) completed;
            Condition.signal c))
  in
  let await () =
    let r, warmup, t0, t, line =
      Mutex.protect m (fun () ->
          while Queue.is_empty completed do Condition.wait c m done;
          Queue.pop completed)
    in
    { s_id = r.id; s_client = r.client; s_meth = r.meth; s_warmup = warmup;
      s_submit_ms = t0; s_done_ms = t; s_result = is_result r.id line;
      s_digest = Digest.string line }
  in
  let samples = ref [] in
  (* Warm-up: one change and one query, serially. *)
  List.iter
    (fun client ->
      submit ~warmup:true (next g client);
      samples := await () :: !samples)
    [ 0; 1 ];
  let deadline = Clock.now_ms () +. (seconds *. 1000.0) in
  let sent = Clock.now_ms () in
  submit ~sent ~warmup:false (next_change g);
  submit ~sent ~warmup:false (next_query g);
  let busy = [| true; true |] and answered = ref 0 and heap_mb = ref [] in
  while busy.(0) || busy.(1) do
    let s = await () in
    samples := s :: !samples;
    busy.(s.s_client) <- false;
    if s.s_client = 0 then begin
      heap_mb := Stats.heap_mb () :: !heap_mb;
      answered := 0
    end
    else incr answered;
    if Clock.now_ms () < deadline then begin
      if (not busy.(0)) && !answered >= queries_per_change then begin
        submit ~sent:s.s_done_ms ~warmup:false (next_change g);
        busy.(0) <- true
      end;
      if s.s_client = 1 then begin
        submit ~sent:s.s_done_ms ~warmup:false (next_query g);
        busy.(1) <- true
      end
    end
  done;
  Dispatch.stop d;
  (List.rev !samples, !heap_mb)

type replay = {
  failed : int;
  service_ms : float list;  (** per sample, in completion order *)
  decode_ms : float list;
  encode_ms : float list;
  pair_ns : float list;  (** per alias request: mean ns per may-alias pair *)
}

let complain = ref 5

let time f =
  let t0 = Clock.now_ms () in
  let v = f () in
  (v, Clock.now_ms () -. t0)

(* The correctness check, and the per-request service times: regenerate
   both streams and replay them serially, in completion order, on a
   fresh serialized dispatcher. With [trace], also time the JSON codec
   and the store's may-alias on each request. *)
let replay ~trace ~seed source samples =
  (* Answers are over the unoptimized program whatever [optimize] says,
     so the untraced check skips the optimizer; the traced run keeps it,
     since it times each request's service. *)
  let d, memrefs = start { config with Dispatch.workers = 0; optimize = trace } source in
  let g = gen ~seed ~memrefs source in
  let failed = ref 0 in
  let service = ref [] and decode = ref [] and encode = ref [] and pair_ns = ref [] in
  List.iter
    (fun s ->
      let r = next g s.s_client in
      let bad msg =
        incr failed;
        if !complain > 0 then begin
          decr complain;
          Printf.eprintf "perfbench: %s request %d: %s\n%!" s.s_meth s.s_id msg
        end
      in
      let serial, ms = time (fun () -> Dispatch.handle_line d r.line) in
      service := ms :: !service;
      if r.id <> s.s_id then bad "regenerated stream is out of step"
      else if not s.s_result then bad "response is not a result"
      else if Digest.string serial <> s.s_digest then bad "response differs from the serialized replay";
      if trace then begin
        let v, dec = time (fun () -> Json.of_string r.line) in
        let answer = Json.of_string serial in
        let _, enc = time (fun () -> Json.to_string answer) in
        decode := dec :: !decode;
        encode := enc :: !encode;
        match Option.bind (Json.member "params" v) (Json.member "pairs") with
        | Some (Json.List pairs) ->
          let pairs =
            List.map
              (function
                | Json.List [ Json.Int i; Json.Int j ] -> (i, j)
                | _ -> invalid_arg "perfbench: malformed pair")
              pairs
          in
          Server.Store.with_doc_read (Dispatch.store d) doc (function
            | None -> bad "document vanished"
            | Some doc ->
              let _, ms =
                time (fun () ->
                    List.iter
                      (fun (i, j) ->
                        ignore (Server.Store.may_alias doc Tbaa.Engine.Sm_field_type_refs i j))
                      pairs)
              in
              pair_ns := (ms *. 1e6 /. float_of_int (List.length pairs)) :: !pair_ns)
        | _ -> ()
      end)
    samples;
  Dispatch.stop d;
  { failed = !failed; service_ms = List.rev !service; decode_ms = !decode;
    encode_ms = !encode; pair_ns = !pair_ns }

(* Per-layer costs of the editor's path, entered directly: the stream's
   changes replayed through parse, typecheck, lower, [Engine.update] and
   an incremental optimizer session, the way the store rebuilds a
   document (the optimizer runs on the side and the lowering is
   restored). [change_replayer] sets up the engine and a warm session and
   returns a function that applies the next change of the stream, as op
   [op], and returns its exact counts. Spans go to [tr] while it is
   enabled. *)
type change_counts = {
  ir_instrs : int;
  recomputed : int;
  reused : int;
  reran : int;
  queries : int;
  hits : int;
}

let change_replayer tr ~seed ~memrefs source =
  let span ~op name f = Trace.with_span tr ~lane:3 ~op name f in
  let prog0 = Ir.Lower.lower_string ~file:doc source in
  let engine = span ~op:0 "engine.create" (fun () -> Tbaa.Engine.create prog0) in
  let cfg = Compile.config ~inline:false in
  let schedule = Opt.Pipeline.schedule_of_config cfg in
  let session = Opt.Pass_manager.session (Opt.Pipeline.context_of_config cfg) in
  let optimize prog =
    let snap = Ir.Cfg.snapshot prog in
    let reports = Opt.Pass_manager.rerun session prog schedule in
    Ir.Cfg.restore prog snap;
    reports
  in
  ignore (optimize prog0);
  let g = gen ~seed ~memrefs source in
  let src = ref source in
  fun op ->
    let edit = Option.get (next_change g).edit in
    src := Result.get_ok (Server.Store.splice ~source:!src ~edits:[ edit ]);
    let ast = span ~op "parse" (fun () -> Minim3.Parser.parse_module ~file:doc !src) in
    let tast = span ~op "typecheck" (fun () -> Minim3.Typecheck.check_module ast) in
    let prog = span ~op "lower" (fun () -> Ir.Lower.lower_program tast) in
    ignore (span ~op "engine.update" (fun () -> Tbaa.Engine.update engine prog));
    let reports = span ~op "opt.session" (fun () -> optimize prog) in
    let reused, reran = Opt.Pass_manager.session_counts session in
    let sum f = List.fold_left (fun n r -> n + f r.Opt.Pass.r_oracle) 0 reports in
    { ir_instrs = Compile.ir_instrs prog;
      recomputed =
        (match Tbaa.Engine.last_update engine with
        | Some u -> List.length u.Tbaa.Engine.ur_recomputed
        | None -> 0);
      reused; reran;
      queries = sum Tbaa.Oracle_cache.queries;
      hits = sum Tbaa.Oracle_cache.hits }

(* The first [limit] changes, through two replayers in lockstep: one
   traced, one not. Their counts must be equal (a change whose counts
   differ fails), and their times give the tracing overhead. Which of the
   two goes first alternates, so neither profits from the other warming
   the caches. Returns the traced counts, the number of mismatches and
   the traced and untraced replay times in ms. *)
let replay_changes tr ~limit ~seed ~memrefs source =
  let with_trace on f =
    tr.Trace.enabled <- on;
    Fun.protect ~finally:(fun () -> tr.Trace.enabled <- false) f
  in
  let traced = with_trace true (fun () -> change_replayer tr ~seed ~memrefs source) in
  let plain = change_replayer tr ~seed ~memrefs source in
  let traced_ms = ref 0.0 and plain_ms = ref 0.0 and mismatched = ref 0 in
  let step total on replayer op =
    let c, ms = time (fun () -> with_trace on (fun () -> replayer op)) in
    total := !total +. ms;
    c
  in
  let counts =
    List.init limit (fun i ->
        let op = i + 1 in
        let a, b =
          if i mod 2 = 0 then
            let a = step traced_ms true traced op in
            (a, step plain_ms false plain op)
          else
            let b = step plain_ms false plain op in
            (step traced_ms true traced op, b)
        in
        if a <> b then begin
          incr mismatched;
          if !complain > 0 then begin
            decr complain;
            Printf.eprintf "perfbench: change %d: counts differ between two replays\n%!" op
          end
        end;
        a)
  in
  (counts, !mismatched, !traced_ms, !plain_ms)

type run = {
  samples : sample list;  (** completion order, warm-up included *)
  elapsed_s : float;
  heap_mb : float list;  (** major heap size after each change response *)
  check : replay;
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  replay_failed : int;  (** changes whose two layer replays disagreed *)
}

let latencies meths samples =
  List.filter_map
    (fun s ->
      if (not s.s_warmup) && List.mem s.s_meth meths then Some (s.s_done_ms -. s.s_submit_ms)
      else None)
    samples

let query_meths = [ "alias"; "modref" ]

(* Throughput: requests answered per second, from the first request
   sent to the last response. *)
let rate samples =
  let timed = List.filter (fun s -> not s.s_warmup) samples in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.s_submit_ms) infinity timed in
  let t1 = List.fold_left (fun acc s -> Float.max acc s.s_done_ms) t0 timed in
  float_of_int (List.length timed) /. ((t1 -. t0) /. 1000.0)

let layers tr ~seed ~memrefs source samples check =
  tr.Trace.enabled <- true;
  List.iter
    (fun s ->
      if not s.s_warmup then
        Trace.add tr ~lane:(s.s_client + 1) ~op:s.s_id ~start_ms:s.s_submit_ms
          ~stop_ms:s.s_done_ms ("dispatch." ^ s.s_meth))
    samples;
  tr.Trace.enabled <- false;
  let changes = List.length (latencies [ "change" ] samples) in
  let per_change, mismatched, traced_ms, plain_ms =
    replay_changes tr ~limit:(min 40 changes) ~seed ~memrefs source
  in
  let totals = Trace.self_totals (Trace.spans tr) in
  let n = float_of_int (max 1 (List.length per_change)) in
  let self name = Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0.0) in
  let ms name = fst (self name) /. n and mwords name = snd (self name) /. n /. 1e6 in
  let sum f = List.fold_left (fun acc c -> acc +. float_of_int (f c)) 0.0 per_change in
  let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  let reused = sum (fun c -> c.reused) and reran = sum (fun c -> c.reran) in
  let hits = sum (fun c -> c.hits) and queries = sum (fun c -> c.queries) in
  let dispatch meth =
    let service =
      List.filter_map
        (fun (s, ms) -> if s.s_meth = meth && not s.s_warmup then Some ms else None)
        (List.combine samples check.service_ms)
    in
    let svc = Stats.mean service in
    [ (Printf.sprintf "dispatch.%s.service_ms" meth, svc);
      (Printf.sprintf "dispatch.%s.wait_ms" meth, Stats.mean (latencies [ meth ] samples) -. svc) ]
  in
  let q = Stats.sorted (latencies query_meths samples) in
  ( [ ("parse.ms", ms "parse"); ("parse.mwords", mwords "parse");
    ("typecheck.ms", ms "typecheck"); ("typecheck.mwords", mwords "typecheck");
    ("lower.ms", ms "lower"); ("lower.mwords", mwords "lower");
    ("lower.ir_instrs", sum (fun c -> c.ir_instrs) /. n);
    ("engine.create_ms", fst (self "engine.create"));
    ("engine.create_mwords", snd (self "engine.create") /. 1e6);
    ("engine.update_ms", ms "engine.update");
    ("engine.update_mwords", mwords "engine.update");
    ("engine.recomputed_procs", sum (fun c -> c.recomputed) /. n);
    ("opt.session.rerun_ms", ms "opt.session");
    ("opt.session.reuse_ratio", ratio reused reran);
    ("opt.oracle.queries", queries /. n);
    ("opt.oracle.hit_ratio", if queries > 0.0 then hits /. queries else 0.0) ]
  @ dispatch "change" @ dispatch "alias" @ dispatch "modref"
  @ [ ("dispatch.query.p50_ms", Stats.quantile q 0.5);
      ("dispatch.query.p99_ms", Stats.quantile q 0.99);
      ("json.decode_ms", Stats.mean check.decode_ms);
      ("json.encode_ms", Stats.mean check.encode_ms);
      ("store.may_alias_ns", Stats.mean check.pair_ns);
      ("trace.ops_per_s", rate samples);
      (* The loop stamps every request whether or not the run is traced,
         and its spans are built from those stamps afterwards, so the
         spans that cost anything are the layer replay's: the overhead
         compares the change rates of the traced and untraced replays. *)
      ("trace.overhead_pct", 100.0 *. (1.0 -. (plain_ms /. traced_ms))) ],
    mismatched )

let run tr ~seed ~seconds ~trace (d, memrefs) source =
  let samples, heap_mb = closed_loop d (gen ~seed ~memrefs source) ~seconds in
  let first = List.fold_left (fun acc s -> if s.s_warmup then acc else Float.min acc s.s_submit_ms) infinity samples in
  let last = List.fold_left (fun acc s -> Float.max acc s.s_done_ms) first samples in
  let elapsed_s = (last -. first) /. 1000.0 in
  let check = replay ~trace ~seed source samples in
  let layers, replay_failed =
    if trace then layers tr ~seed ~memrefs source samples check else ([], 0)
  in
  { samples; elapsed_s; heap_mb; check; layers; replay_failed }
