(* Lint: no new process-global mutable state in lib/.

   Every top-level (or module-level) value of a lib/ source file whose
   initializer creates mutable state — [ref], [Hashtbl.create] or any other
   [M.create], [Atomic.make] — is process-global: two domains (the
   daemon's workers, the parallel pass engine) can race on it. Each one
   must be on the allowlist below with the reason it is safe, or a known
   open item. Function bodies are not scanned: what they create is
   per call. The allowlist must not go stale either: an entry that no
   longer matches anything fails the test too. *)

open Parsetree

(* (file under lib/, value path, why it may stay) *)
let allowlist =
  [ ("support/ident.ml", "lock", "guards the intern table and both counters");
    ("support/ident.ml", "table", "under Ident.lock");
    ("support/ident.ml", "counter", "under Ident.lock");
    ("support/ident.ml", "fresh_counter", "under Ident.lock");
    ("ir/apath.ml", "table", "under Apath.lock");
    ("ir/apath.ml", "next_id", "under Apath.lock");
    ("ir/apath.ml", "lock", "guards the intern table and id counter");
    ("core/aloc.ml", "intern_tbl", "under Aloc.lock");
    ("core/aloc.ml", "next_id", "under Aloc.lock");
    ("core/aloc.ml", "lock", "guards the intern table and id counter");
    ("ir/dataflow.ml", "total_solves", "atomic cumulative counter");
    ("ir/dataflow.ml", "total_iterations", "atomic cumulative counter");
    ("support/clock.ml", "raw", "atomic; swapped only by clock tests");
    ("support/clock.ml", "watermark", "atomic CAS monotonic clamp");
    ( "harness/runner.ml", "memo",
      "experiment memo; its callers (tbaac experiment, bench) use one domain" );
    ( "sim/precompile.ml", "heap_hints",
      "open ROADMAP item (domain-safe by construction)" );
    ( "sim/precompile.ml", "compiled_cache",
      "open ROADMAP item (domain-safe by construction)" );
    ( "sim/precompile.ml", "compile_busy",
      "open ROADMAP item (domain-safe by construction)" );
    ( "sim/limit.ml", "size_hint",
      "open ROADMAP item (domain-safe by construction)" ) ]

let creates_state (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match txt with
    | Longident.Lident "ref" -> true
    | Longident.Ldot (_, "create") -> true
    | Longident.Ldot (Longident.Lident "Atomic", "make") -> true
    | _ -> false)
  | _ -> false

(* Does evaluating [e] once (outside any function body) create state? *)
let initializer_creates_state e =
  let found = ref false in
  let iter =
    { Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | _ ->
            if creates_state e then found := true;
            Ast_iterator.default_iterator.expr self e) }
  in
  iter.expr iter e;
  !found

let rec structure prefix items = List.concat_map (structure_item prefix) items

and structure_item prefix si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.filter_map
      (fun vb ->
        let name =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
            txt
          | _ -> "_"
        in
        if initializer_creates_state vb.pvb_expr then Some (prefix ^ name)
        else None)
      vbs
  | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } ->
    module_expr (prefix ^ Option.value txt ~default:"_" ^ ".") pmb_expr
  | Pstr_recmodule mbs ->
    List.concat_map
      (fun mb ->
        module_expr
          (prefix ^ Option.value mb.pmb_name.txt ~default:"_" ^ ".")
          mb.pmb_expr)
      mbs
  | _ -> []

and module_expr prefix me =
  match me.pmod_desc with
  | Pmod_structure items -> structure prefix items
  | Pmod_constraint (me, _) -> module_expr prefix me
  | _ -> []

let rec ml_files dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then ml_files path
      else if Filename.check_suffix entry ".ml" then [ path ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let lib_root () =
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | Some d -> d
  | None -> failwith "lib/ not found"

let findings () =
  let root = lib_root () in
  let skip = String.length root + 1 in
  List.concat_map
    (fun path ->
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf path;
      let rel = String.sub path skip (String.length path - skip) in
      List.map (fun name -> (rel, name)) (structure "" (Parse.implementation lexbuf)))
    (ml_files root)

let test_no_new_global_state () =
  let found = findings () in
  let allowed (file, name) =
    List.exists (fun (f, n, _) -> f = file && n = name) allowlist
  in
  let show (f, n) = f ^ ": " ^ n in
  Alcotest.(check (list string))
    "process-global mutable state outside the allowlist" []
    (List.map show (List.filter (fun x -> not (allowed x)) found));
  Alcotest.(check (list string)) "stale allowlist entries" []
    (List.filter_map
       (fun (f, n, _) -> if List.mem (f, n) found then None else Some (show (f, n)))
       allowlist)

let () =
  Alcotest.run "lint"
    [ ( "global state",
        [ Alcotest.test_case "lib/ allowlist" `Quick test_no_new_global_state ] )
    ]
