(* Order statistics over a run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [a] sorted, non-empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile (sorted xs) 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* How many samples lie strictly above the [q] quantile — the guide's
   "at least ten samples beyond it" test for a reported percentile. *)
let beyond a q =
  let v = quantile a q in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

(* The major heap's current size, in MiB. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)
