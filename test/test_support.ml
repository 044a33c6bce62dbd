(* Unit and property tests for the support substrate. *)

open Support

(* Explicitly seeded per test: reproducible without QCHECK_SEED, and
   independent of sibling tests' draws. *)
let pinned_rand () = Random.State.make [| 0xBAA; 2024 |]

let test_ident_interning () =
  let a = Ident.intern "foo" and b = Ident.intern "foo" in
  Alcotest.(check bool) "same ident" true (Ident.equal a b);
  Alcotest.(check string) "name round-trips" "foo" (Ident.name a);
  let c = Ident.intern "bar" in
  Alcotest.(check bool) "distinct idents" false (Ident.equal a c)

let test_ident_fresh () =
  let f1 = Ident.fresh "t" and f2 = Ident.fresh "t" in
  Alcotest.(check bool) "fresh are distinct" false (Ident.equal f1 f2);
  let again = Ident.intern (Ident.name f1) in
  Alcotest.(check bool) "fresh is interned" true (Ident.equal f1 again)

(* Two domains intern overlapping name sets (and mint fresh names) at
   once; every spelling must end with exactly one ident, and fresh names
   must stay distinct. *)
let ident_race round =
  let names lo hi =
    Array.init (hi - lo) (fun i -> Printf.sprintf "race%d_%d" round (lo + i))
  in
  let ready = Atomic.make 0 in
  let worker ns () =
    (* start together, so the two domains really overlap *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let ids = Array.map Ident.intern ns in
    let fresh = Array.init 500 (fun _ -> Ident.fresh "race") in
    (ns, ids, fresh)
  in
  (* one domain climbs, the other descends: they meet in the shared range *)
  let down = names 3000 9000 in
  let n = Array.length down in
  let down = Array.init n (fun i -> down.(n - 1 - i)) in
  let a = Domain.spawn (worker (names 0 6000)) and b = Domain.spawn (worker down) in
  let results = [ Domain.join a; Domain.join b ] in
  let by_name = Hashtbl.create 9000 in
  List.iter
    (fun (ns, ids, _) ->
      Array.iteri
        (fun i n ->
          let id = ids.(i) in
          Alcotest.(check string) "spelling" n (Ident.name id);
          match Hashtbl.find_opt by_name n with
          | Some prev -> Alcotest.(check int) (n ^ ": one id") (Ident.id prev) (Ident.id id)
          | None -> Hashtbl.add by_name n id)
        ns)
    results;
  Alcotest.(check int) "every name seen" 9000 (Hashtbl.length by_name);
  let ids = Hashtbl.create 9000 in
  Hashtbl.iter
    (fun n id ->
      Alcotest.(check int) (n ^ ": stable") (Ident.id id) (Ident.id (Ident.intern n));
      Alcotest.(check bool) (n ^ ": id unique") false (Hashtbl.mem ids (Ident.id id));
      Hashtbl.add ids (Ident.id id) ())
    by_name;
  let fresh = List.concat_map (fun (_, _, f) -> Array.to_list f) results in
  let spellings = List.sort_uniq String.compare (List.map Ident.name fresh) in
  Alcotest.(check int) "fresh names distinct" 1000 (List.length spellings);
  List.iter
    (fun f -> Alcotest.(check bool) "fresh is interned" true (Ident.equal f (Ident.intern (Ident.name f))))
    fresh

let test_ident_domains () =
  for round = 1 to 6 do
    ident_race round
  done

let test_union_find_basic () =
  let uf = Union_find.create 8 in
  Alcotest.(check bool) "initially apart" false (Union_find.same uf 0 1);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Alcotest.(check bool) "joined" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "separate groups" false (Union_find.same uf 1 2);
  Union_find.union uf 1 3;
  Alcotest.(check bool) "transitively joined" true (Union_find.same uf 0 2);
  Alcotest.(check (list int)) "group members" [ 0; 1; 2; 3 ] (Union_find.group uf 0)

let test_union_find_groups () =
  let uf = Union_find.create 5 in
  Union_find.union uf 0 4;
  let gs = Union_find.groups uf in
  Alcotest.(check int) "number of groups" 4 (List.length gs);
  Alcotest.(check bool) "0 and 4 together" true
    (List.exists (fun g -> List.mem 0 g && List.mem 4 g) gs)

let test_union_find_copy () =
  let uf = Union_find.create 4 in
  Union_find.union uf 0 1;
  let snapshot = Union_find.copy uf in
  Union_find.union uf 2 3;
  Alcotest.(check bool) "copy unaffected" false (Union_find.same snapshot 2 3);
  Alcotest.(check bool) "copy kept past merges" true (Union_find.same snapshot 0 1)

let test_bitset_basic () =
  let s = Bitset.create 20 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 3;
  Bitset.add s 17;
  Alcotest.(check bool) "mem 3" true (Bitset.mem s 3);
  Alcotest.(check bool) "not mem 4" false (Bitset.mem s 4);
  Alcotest.(check int) "cardinal" 2 (Bitset.cardinal s);
  Bitset.remove s 3;
  Alcotest.(check (list int)) "elements" [ 17 ] (Bitset.elements s)

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] and b = Bitset.of_list 10 [ 2; 3; 4 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~dst:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d)

let test_bitset_fill () =
  let s = Bitset.create 13 in
  Bitset.fill s;
  Alcotest.(check int) "cardinal = universe" 13 (Bitset.cardinal s);
  Alcotest.(check bool) "last element present" true (Bitset.mem s 12)

let test_bitset_universe_guard () =
  let s = Bitset.create 4 in
  Alcotest.check_raises "out of universe" (Invalid_argument "Bitset: element out of universe")
    (fun () -> Bitset.add s 4)

let test_table_render () =
  let t = Table.create ~headers:[ "Program"; "Count" ] in
  Table.add_row t [ "format"; "75" ];
  Table.add_row t [ "m3cg"; "4515" ];
  let out = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 7 = "Program");
  Alcotest.(check bool) "right-aligns numbers" true
    (let lines = String.split_on_char '\n' out in
     (* "format" padded to width 7, two-space gap, "75" right in width 5 *)
     List.exists (fun l -> l = "format      75") lines)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_bounds () =
  let p = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Prng.int out of bounds"
  done

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Alcotest.(check int) "push returns index" 0 (Vec.push v 10);
  Alcotest.(check int) "second index" 1 (Vec.push v 20);
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Vec.to_list v);
  Alcotest.(check int) "fold" 119 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 99) v);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "spot check" 731 (Vec.get v 731)

(* Property tests. *)

let prop_union_find_is_equivalence =
  QCheck.Test.make ~name:"union_find: same is an equivalence relation"
    ~count:100
    QCheck.(pair (int_range 2 20) (small_list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, pairs) ->
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> Union_find.union uf (a mod n) (b mod n)) pairs;
      (* reflexive, symmetric, and union implies same *)
      let ok_refl = List.init n (fun i -> Union_find.same uf i i) in
      let ok_sym =
        List.for_all
          (fun (a, b) ->
            Union_find.same uf (a mod n) (b mod n)
            = Union_find.same uf (b mod n) (a mod n))
          pairs
      in
      List.for_all Fun.id ok_refl && ok_sym)

let prop_bitset_union_cardinal =
  QCheck.Test.make ~name:"bitset: |a ∪ b| + |a ∩ b| = |a| + |b|" ~count:100
    QCheck.(pair (small_list (int_range 0 63)) (small_list (int_range 0 63)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
      let u = Bitset.copy a and i = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      Bitset.inter_into ~dst:i b;
      Bitset.cardinal u + Bitset.cardinal i = Bitset.cardinal a + Bitset.cardinal b)

let prop_groups_partition =
  QCheck.Test.make ~name:"union_find: groups form a partition" ~count:100
    QCheck.(pair (int_range 1 16) (small_list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> Union_find.union uf (a mod n) (b mod n)) pairs;
      let gs = Union_find.groups uf in
      let all = List.concat gs in
      List.length all = n && List.sort compare all = List.init n Fun.id)


(* --- json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Support.Json.(
      Obj
        [ ("name", String "bench \"alias\"\n");
          ("count", Int 42);
          ("rate", Float 0.8125);
          ("ok", Bool true);
          ("none", Null);
          ("legs", List [ Int 1; Float 2.5; String "x" ]);
          ("empty_obj", Obj []);
          ("empty_list", List []) ])
  in
  let text = Support.Json.to_string v in
  Alcotest.(check bool) "parse(print(v)) = v" true
    (Support.Json.of_string text = v);
  Alcotest.(check bool) "whitespace tolerated" true
    (Support.Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Support.Json.(Obj [ ("a", List [ Int 1; Int 2 ]) ]))

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Support.Json.of_string bad with
      | exception Support.Json.Parse_error _ -> ()
      | v ->
        Alcotest.failf "%S parsed as %s" bad (Support.Json.to_string v))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{1:2}" ]

let test_json_unicode_escapes () =
  Alcotest.(check bool) "legal \\u escape" true
    (Support.Json.of_string "\"\\u0041\"" = Support.Json.String "A");
  Alcotest.(check bool) "control escape" true
    (Support.Json.of_string "\"\\u000a\"" = Support.Json.String "\n");
  List.iter
    (fun bad ->
      match Support.Json.of_string bad with
      | exception Support.Json.Parse_error _ -> ()
      | v -> Alcotest.failf "%S parsed as %s" bad (Support.Json.to_string v)
      | exception e ->
        Alcotest.failf "%S raised %s instead of Parse_error" bad
          (Printexc.to_string e))
    [ "\"\\u00";  (* truncated escape *)
      "\"\\u00\"";  (* closing quote inside the four digits *)
      "\"\\uZZZZ\"";  (* non-hex digits *)
      "\"\\u12g4\"";  (* one bad digit *)
      "\"\\u12_3\""  (* int_of_string would accept the underscore *) ]

let test_json_hardening () =
  (* Adversarial inputs must produce Parse_error — never Stack_overflow,
     never a silently wrapped or rounded number. *)
  let expect_parse_error what s =
    match Support.Json.of_string s with
    | exception Support.Json.Parse_error _ -> ()
    | exception e ->
      Alcotest.failf "%s raised %s instead of Parse_error" what
        (Printexc.to_string e)
    | v -> Alcotest.failf "%s parsed as %s" what (Support.Json.to_string v)
  in
  expect_parse_error "unclosed depth bomb" (String.make 4000 '[');
  expect_parse_error "balanced depth bomb"
    (String.make 600 '[' ^ "1" ^ String.make 600 ']');
  expect_parse_error "nested object bomb"
    (String.concat "" (List.init 600 (fun _ -> "{\"a\":")) ^ "1");
  expect_parse_error "integer overflow" "99999999999999999999999";
  expect_parse_error "negative integer overflow" "-99999999999999999999999";
  expect_parse_error "non-finite float" "1e99999";
  (* Deep-but-legal nesting still parses. *)
  let ok = String.make 100 '[' ^ "1" ^ String.make 100 ']' in
  Alcotest.(check bool) "100 levels parse" true
    (match Support.Json.of_string ok with
    | _ -> true
    | exception _ -> false);
  Alcotest.(check bool) "max_int round-trips" true
    (Support.Json.of_string (string_of_int max_int)
    = Support.Json.Int max_int)

let test_json_parse_result () =
  (match Support.Json.parse "{\"a\":1}" with
  | Ok (Support.Json.Obj [ ("a", Support.Json.Int 1) ]) -> ()
  | Ok v -> Alcotest.failf "parsed wrong: %s" (Support.Json.to_string v)
  | Error d -> Alcotest.failf "rejected: %s" d.Support.Diag.message);
  List.iter
    (fun bad ->
      match Support.Json.parse bad with
      | Error d ->
        Alcotest.(check bool) "diagnostic has a message" true
          (String.length d.Support.Diag.message > 0)
      | Ok v ->
        Alcotest.failf "%S accepted as %s" bad (Support.Json.to_string v))
    [ "{"; "nope"; String.make 2000 '['; "1e99999" ]

(* A generator of arbitrary Json values; shrinking is structural. *)
let json_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [ return Support.Json.Null;
                map (fun b -> Support.Json.Bool b) bool;
                map (fun i -> Support.Json.Int i) small_signed_int;
                map (fun f -> Support.Json.Float f) (float_bound_inclusive 1e6);
                map (fun s -> Support.Json.String s) (small_string ?gen:None) ]
          in
          if n <= 0 then scalar
          else
            frequency
              [ (3, scalar);
                ( 1,
                  map
                    (fun l -> Support.Json.List l)
                    (list_size (int_bound 4) (self (n / 2))) );
                ( 1,
                  map
                    (fun kvs ->
                      Support.Json.Obj
                        (List.mapi
                           (fun i (k, v) -> (k ^ string_of_int i, v))
                           kvs))
                    (list_size (int_bound 4)
                       (pair (small_string ?gen:None) (self (n / 2)))) ) ])
        (min size 6))

let prop_json_roundtrip_fixpoint =
  QCheck.Test.make ~name:"json: to_string output re-parses to itself"
    ~count:300
    (QCheck.make json_gen)
    (fun v ->
      let s = Support.Json.to_string v in
      match Support.Json.of_string s with
      | reparsed -> Support.Json.to_string reparsed = s
      | exception Support.Json.Parse_error _ -> false)

(* ------------------------------------------------------------------ *)
(* Domain_pool edge cases                                              *)
(* ------------------------------------------------------------------ *)

let test_domain_pool_size_one () =
  let slots = Array.make 16 (-1) in
  Domain_pool.run ~domains:1 16 (fun i -> slots.(i) <- i * i);
  Alcotest.(check bool) "all slots written" true
    (Array.for_all (fun x -> x >= 0) slots);
  Alcotest.(check int) "sequential result" 225 slots.(15);
  (* Degenerate shapes. *)
  Domain_pool.run ~domains:1 0 (fun _ -> Alcotest.fail "ran on n=0");
  Domain_pool.run ~domains:8 2 (fun i -> slots.(i) <- -i)

let test_domain_pool_exception_propagation () =
  let ran = Array.make 8 false in
  (match
     Domain_pool.run ~domains:4 8 (fun i ->
         ran.(i) <- true;
         if i = 5 then failwith "task 5 exploded")
   with
  | () -> Alcotest.fail "exception was swallowed"
  | exception Failure msg ->
    Alcotest.(check string) "the task's own exception" "task 5 exploded" msg);
  Alcotest.(check bool) "failing task did run" true ran.(5)

let test_domain_pool_reuse_after_failure () =
  (* A failed batch must not wedge subsequent runs (fresh domains are
     joined even when a task raises). *)
  (try
     Domain_pool.run ~domains:4 4 (fun _ -> failwith "all tasks explode")
   with Failure _ -> ());
  let slots = Array.make 32 0 in
  Domain_pool.run ~domains:4 32 (fun i -> slots.(i) <- i + 1);
  Alcotest.(check int) "pool still works" (32 * 33 / 2)
    (Array.fold_left ( + ) 0 slots)

let test_json_accessors () =
  let v = Support.Json.of_string "{\"x\":3,\"y\":2.5,\"s\":\"hi\"}" in
  Alcotest.(check (option (float 0.0))) "int member" (Some 3.0)
    (Option.bind (Support.Json.member "x" v) Support.Json.to_float);
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (Support.Json.member "y" v) Support.Json.to_float);
  Alcotest.(check bool) "non-numeric member" true
    (Option.bind (Support.Json.member "s" v) Support.Json.to_float = None);
  Alcotest.(check bool) "missing member" true
    (Support.Json.member "z" v = None)

let () =
  Alcotest.run "support"
    [ ( "ident",
        [ Alcotest.test_case "interning" `Quick test_ident_interning;
          Alcotest.test_case "fresh" `Quick test_ident_fresh;
          Alcotest.test_case "two domains" `Quick test_ident_domains ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "groups" `Quick test_union_find_groups;
          Alcotest.test_case "copy" `Quick test_union_find_copy;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_union_find_is_equivalence;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_groups_partition ] );
      ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "fill" `Quick test_bitset_fill;
          Alcotest.test_case "universe guard" `Quick test_bitset_universe_guard;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_bitset_union_cardinal ] );
      ( "vec",
        [ Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "growth" `Quick test_vec_growth ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "hardening" `Quick test_json_hardening;
          Alcotest.test_case "exception-free parse" `Quick
            test_json_parse_result;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            prop_json_roundtrip_fixpoint ] );
      ( "domain_pool",
        [ Alcotest.test_case "size-one pool" `Quick test_domain_pool_size_one;
          Alcotest.test_case "exception propagation" `Quick
            test_domain_pool_exception_propagation;
          Alcotest.test_case "reuse after failure" `Quick
            test_domain_pool_reuse_after_failure ] );
      ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds ] ) ]
