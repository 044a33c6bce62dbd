(* In-memory span recorder for the traced benchmark run.

   A span brackets one call into a layer: its name, the op it belongs
   to, the enclosing span (so self time can be computed), start and stop
   on the monotonic clock, and the minor words the calling domain
   allocated inside it (children included). Spans are kept in memory and
   written out once, when the run ends, as Chrome trace-event JSON
   ("ph":"X" complete events), which chrome://tracing and Perfetto open
   directly. With the recorder disabled, [with_span] is a plain call. *)

open Support

type span = {
  id : int;
  name : string;
  op : int;
  lane : int;  (** trace-viewer row: 1 for compile ops, one per daemon client *)
  parent : int;  (** id of the enclosing span, -1 at the root *)
  start_ms : float;
  stop_ms : float;
  words : float;  (** minor words allocated inside the span *)
}

type t = {
  mutable enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let create () = { enabled = false; next_id = 0; stack = []; spans = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* A span timed elsewhere, e.g. a daemon request stamped at submission
   and in its response callback. *)
let add t ~lane ~op ~start_ms ~stop_ms name =
  if t.enabled then
    t.spans <-
      { id = fresh_id t; name; op; lane; parent = -1; start_ms; stop_ms; words = 0.0 }
      :: t.spans

let with_span t ?(lane = 1) ~op name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let finish start_ms w0 =
      let stop_ms = Clock.now_ms () in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; op; lane; parent; start_ms; stop_ms; words } :: t.spans
    in
    let w0 = Gc.minor_words () in
    let start_ms = Clock.now_ms () in
    match f () with
    | r ->
      finish start_ms w0;
      r
    | exception e ->
      finish start_ms w0;
      raise e
  end

let spans t = List.rev t.spans

(* Per span name: (self ms, self words) summed over every span of that
   name. A span's self time is its duration minus the time its direct
   children cover; children of one span never overlap (the recorder
   nests them on one domain), so the subtraction is exact. *)
let self_totals spans =
  let child_ms = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_ms s.parent (s.stop_ms -. s.start_ms);
        bump child_words s.parent s.words
      end)
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let get tbl = Option.value (Hashtbl.find_opt tbl s.id) ~default:0.0 in
      let ms = s.stop_ms -. s.start_ms -. get child_ms
      and words = s.words -. get child_words in
      let ms0, w0 =
        Option.value (Hashtbl.find_opt totals s.name) ~default:(0.0, 0.0)
      in
      Hashtbl.replace totals s.name (ms0 +. ms, w0 +. words))
    spans;
  totals

let write_chrome spans ~file =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start_ms) infinity spans
  in
  (* Whole microseconds: Json renders floats to 6 significant digits,
     too few for a timestamp late in a run. *)
  let us ms = Json.Int (int_of_float ((ms -. origin) *. 1000.0)) in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("cat", Json.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.String "X");
        ("ts", us s.start_ms);
        ("dur", Json.Float ((s.stop_ms -. s.start_ms) *. 1000.0));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.lane);
        ( "args",
          Json.Obj
            [ ("op", Json.Int s.op); ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("minor_words", Json.Float s.words) ] ) ]
  in
  let doc =
    Json.Obj
      [ ("traceEvents", Json.List (List.map event spans));
        ("displayTimeUnit", Json.String "ms") ]
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
