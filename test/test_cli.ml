(* Command-line goldens: the exact output of the [tbaac] subcommands that
   sit on top of the optimizer driver, so a refactor of the layers beneath
   the CLI shows up here as a readable per-command diff.

   [cli.golden] holds one section per command: a "$ tbaac ARGS" line, then
   its stdout lines, then its stderr lines prefixed "stderr: ", then
   "exit: N". A command marked [`Digest] records "stdout md5: HEX" in
   place of its (long) stdout. Regenerate, when the output legitimately
   moves, with

     dune build && dune exec test/test_cli.exe -- --print > test/cli.golden *)

let find_exe name =
  match
    List.find_opt Sys.file_exists
      [ "../bin/" ^ name; "_build/default/bin/" ^ name; "bin/" ^ name ]
  with
  | Some exe -> exe
  | None -> failwith (name ^ " not found (run dune build bin)")

let golden_file () =
  match List.find_opt Sys.file_exists [ "cli.golden"; "test/cli.golden" ] with
  | Some f -> f
  | None -> failwith "cli.golden not found"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest  (* the final newline *)
  | l -> List.rev l

let all_workloads =
  List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
    Workloads.Suite.all

let dynamic_workloads =
  List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
    Workloads.Suite.dynamic

(* (group, mode, arguments) in golden-file order *)
let commands =
  let optimize =
    List.concat_map
      (fun w ->
        List.map
          (fun extra -> ("optimize", `Text, "optimize --workload " ^ w ^ extra))
          [ ""; " --minv --licm --pre --slf --copyprop --dse"; " --verify-ir";
            " --world open" ])
      all_workloads
  in
  let run =
    List.concat_map
      (fun w ->
        List.map
          (fun flag -> ("run", `Digest, "run --workload " ^ w ^ " " ^ flag))
          [ "--optimize"; "--audit" ])
      dynamic_workloads
  in
  optimize @ run
  @ [ ("aliases", `Text, "aliases --type-refs --workload m3cg");
      ("experiment", `Digest, "experiment all") ]

let render tbaac (_, mode, args) =
  let out = Filename.temp_file "tbaac_cli" ".out" in
  let err = Filename.temp_file "tbaac_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" tbaac args (Filename.quote out)
         (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (match mode with
  | `Text -> lines stdout
  | `Digest -> [ "stdout md5: " ^ Digest.to_hex (Digest.string stdout) ])
  @ List.map (fun l -> "stderr: " ^ l) (lines stderr)
  @ [ Printf.sprintf "exit: %d" code ]

let header (_, _, args) = "$ tbaac " ^ args

(* The golden file as (header, body lines) sections. *)
let sections text =
  let close acc = function Some (h, b) -> (h, List.rev b) :: acc | None -> acc in
  let rec go acc cur = function
    | [] -> List.rev (close acc cur)
    | l :: rest when String.starts_with ~prefix:"$ tbaac " l ->
      go (close acc cur) (Some (l, [])) rest
    | l :: rest ->
      go acc (Option.map (fun (h, b) -> (h, l :: b)) cur) rest
  in
  go [] None (lines text)

let check_group group () =
  let tbaac = find_exe "tbaac.exe" in
  let golden = sections (read_file (golden_file ())) in
  List.iter
    (fun ((g, _, _) as c) ->
      if g = group then
        let expected =
          match List.assoc_opt (header c) golden with
          | Some b -> b
          | None -> Alcotest.failf "no golden section for %S" (header c)
        in
        Alcotest.(check (list string)) (header c) expected (render tbaac c))
    commands

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    let tbaac = find_exe "tbaac.exe" in
    List.iter
      (fun c ->
        print_endline (header c);
        List.iter print_endline (render tbaac c))
      commands
  end
  else
    Alcotest.run "cli"
      [ ( "golden",
          List.map
            (fun g -> Alcotest.test_case g `Quick (check_group g))
            [ "optimize"; "run"; "aliases"; "experiment" ] ) ]
