(* Analyzing incomplete programs (the paper's Section 4).

   A "library" is analyzed without its clients. Under the open-world
   assumption the analysis must assume that unavailable type-safe code may
   pass anything of a by-reference formal's type by reference, and may
   reconstruct and assign between any unbranded subtype-related types —
   but BRANDED types keep their privacy, so declaring the internal node
   type BRANDED recovers the closed-world precision.

     dune exec examples/open_world.exe *)

open Ir

let library ~branded =
  Printf.sprintf
    {|
MODULE Cache;
TYPE
  Entry = OBJECT key, value: INTEGER; next: Entry; END;
  (* Only ever used through HotEntry-typed paths; never assigned into an
     Entry-typed location. *)
  HotEntry = %sEntry OBJECT stamp: INTEGER; END;
  Stat = RECORD hits, misses: INTEGER; END;
  PS = REF Stat;
VAR
  table: Entry;
  stats: PS;

PROCEDURE Bump (VAR slot: INTEGER) =
  BEGIN
    slot := slot + 1;
  END Bump;

PROCEDURE Find (key: INTEGER): INTEGER =
  VAR e: Entry;
  BEGIN
    e := table;
    WHILE e # NIL DO
      IF e.key = key THEN
        Bump (stats.hits);
        RETURN e.value;
      END;
      e := e.next;
    END;
    Bump (stats.misses);
    RETURN -1;
  END Find;

PROCEDURE Promote (h: HotEntry) =
  BEGIN
    h.stamp := h.stamp + 1;
    h.value := h.value * 2;
  END Promote;

PROCEDURE Insert (key: INTEGER; value: INTEGER) =
  VAR e: Entry;
  BEGIN
    e := NEW (Entry);
    e.key := key;
    e.value := value;
    e.next := table;
    table := e;
  END Insert;

BEGIN
  stats := NEW (PS);
  WITH hot = NEW (HotEntry) DO
    hot.key := 999;
    Promote (hot);
    PrintInt (hot.value); PrintLn ();
  END;
  FOR i := 1 TO 60 DO
    Insert (i * 3, i);
  END;
  FOR i := 1 TO 200 DO
    PrintInt (Find (i)); PrintChar (' ');
  END;
  PrintLn ();
  PrintInt (stats.hits); PrintChar ('/'); PrintInt (stats.misses); PrintLn ();
END Cache.
|}
    (if branded then "BRANDED \"hot-entry\" " else "")

let report ~branded =
  Printf.printf "--- HotEntry %s ---\n"
    (if branded then "BRANDED" else "unbranded");
  List.iter
    (fun world ->
      let program = Lower.lower_string ~file:"cache" (library ~branded) in
      let ctx = Opt.Pass.create ~world () in
      let e = Opt.Pass.analysis ctx program in
      let pairs =
        Tbaa.Alias_pairs.count
          (Tbaa.Engine.oracle e Tbaa.Engine.Sm_field_type_refs)
          (Tbaa.Engine.facts e)
      in
      let reports =
        Opt.Pass_manager.run ctx program [ Opt.Pass_manager.Run Opt.Rle.pass ]
      in
      let removed =
        List.fold_left
          (fun n stat -> n + Opt.Pass_manager.sum_stat "rle" stat reports)
          0 [ "hoisted"; "eliminated"; "shortened" ]
      in
      let outcome = Sim.Interp.run program in
      Printf.printf
        "%-6s world: %3d local / %3d global alias pairs; RLE removed %d; \
         heap loads %d\n"
        (Tbaa.World.to_string world)
        pairs.Tbaa.Alias_pairs.local_pairs pairs.Tbaa.Alias_pairs.global_pairs
        removed
        outcome.Sim.Interp.counters.Sim.Interp.heap_loads)
    [ Tbaa.World.Closed; Tbaa.World.Open ]

let () =
  print_endline "Open-world analysis of a library without its clients (§4)\n";
  report ~branded:false;
  print_newline ();
  report ~branded:true
