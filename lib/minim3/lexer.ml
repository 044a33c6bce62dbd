open Support

(* The token stream. Slot [i] of [toks], [lcs] and [name_ix] describe
   token [i]; arrays may be longer than [count]. A source position is
   packed as [line lsl col_bits lor col]. Identifiers and keywords go
   through one spelling table per scan, so every occurrence of a name
   shares one [IDENT] value and the parser interns each distinct name at
   most once (see {!ident}). *)
type t = {
  file : string;
  toks : Token.t array;
  lcs : int array;
  name_ix : int array;  (* IDENT tokens: index into [names] *)
  count : int;
  names : string array;  (* distinct spellings, keywords included *)
  idents : Ident.t option array;  (* [names.(k)] once interned *)
  loc_tok : int array;  (* direct-mapped cache of built locations: *)
  loc_val : Loc.t array;  (* slot [i land loc_mask] holds token [i]'s *)
}

let col_bits = 32
let col_mask = (1 lsl col_bits) - 1

let count t = t.count
let token t i = t.toks.(i)
let line t i = t.lcs.(i) lsr col_bits
let col t i = t.lcs.(i) land col_mask
let loc_mask = 255

(* Nodes that start at one token share its location, as long as the
   token is among the last few hundred asked for. *)
let loc t i =
  let slot = i land loc_mask in
  if t.loc_tok.(slot) = i then t.loc_val.(slot)
  else begin
    let l = Loc.make ~file:t.file ~line:(line t i) ~col:(col t i) in
    t.loc_tok.(slot) <- i;
    t.loc_val.(slot) <- l;
    l
  end

let ident t i =
  let k = t.name_ix.(i) in
  match t.idents.(k) with
  | Some id -> id
  | None ->
    let id = Ident.intern t.names.(k) in
    t.idents.(k) <- Some id;
    id

let to_list t = List.init t.count (fun i -> (token t i, loc t i))

let err file line col fmt = Diag.errorf_at (Loc.make ~file ~line ~col) fmt

(* ------------------------------------------------------------------ *)
(* Spelling table: open addressing over slices of the source, so a     *)
(* name already seen costs a hash and a compare, and no allocation.    *)
(* ------------------------------------------------------------------ *)

type spellings = {
  mutable slots : int array;  (* entry index, or -1 *)
  mutable ent_str : string array;
  mutable ent_tok : Token.t array;
  mutable ent_hash : int array;
  mutable n_ent : int;
}

let hash_step h c = (h * 31) + Char.code c

let rec same_from src start s k =
  k = String.length s
  || (String.unsafe_get src (start + k) = String.unsafe_get s k
      && same_from src start s (k + 1))

let slice_is src start len s = String.length s = len && same_from src start s 0

let rec free_slot slots j =
  if slots.(j) < 0 then j else free_slot slots ((j + 1) land (Array.length slots - 1))

let slot_for slots h = free_slot slots (h land (Array.length slots - 1))

let add sp s h tok =
  let k = sp.n_ent in
  if k = Array.length sp.ent_str then begin
    let grow a x = Array.append a (Array.make (Array.length a) x) in
    sp.ent_str <- grow sp.ent_str "";
    sp.ent_tok <- grow sp.ent_tok Token.EOF;
    sp.ent_hash <- grow sp.ent_hash 0
  end;
  sp.ent_str.(k) <- s;
  sp.ent_tok.(k) <- tok;
  sp.ent_hash.(k) <- h;
  sp.n_ent <- k + 1;
  if 2 * sp.n_ent > Array.length sp.slots then begin
    let slots = Array.make (2 * Array.length sp.slots) (-1) in
    for e = 0 to sp.n_ent - 1 do
      slots.(slot_for slots sp.ent_hash.(e)) <- e
    done;
    sp.slots <- slots
  end
  else sp.slots.(slot_for sp.slots h) <- k;
  k

let spellings () =
  let sp =
    { slots = Array.make 256 (-1); ent_str = Array.make 64 "";
      ent_tok = Array.make 64 Token.EOF; ent_hash = Array.make 64 0; n_ent = 0 }
  in
  List.iter
    (fun (s, tok) -> ignore (add sp s (String.fold_left hash_step 0 s) tok))
    Token.keyword_table;
  sp

(* The entry for the word [src.[start .. start+len-1]] whose hash is
   [h], added as an identifier if new; probing starts at slot [j]. *)
let rec spelling sp src start len h j =
  let k = sp.slots.(j) in
  if k < 0 then begin
    let s = String.sub src start len in
    add sp s h (Token.IDENT s)
  end
  else if sp.ent_hash.(k) = h && slice_is src start len sp.ent_str.(k) then k
  else spelling sp src start len h ((j + 1) land (Array.length sp.slots - 1))

(* ------------------------------------------------------------------ *)
(* Scanner                                                             *)
(* ------------------------------------------------------------------ *)

type out = {
  mutable o_toks : Token.t array;
  mutable o_lcs : int array;
  mutable o_names : int array;
  mutable n : int;
}

let push o tok line col name =
  let n = o.n in
  if n = Array.length o.o_toks then begin
    let grow a x = Array.append a (Array.make (Array.length a) x) in
    o.o_toks <- grow o.o_toks Token.EOF;
    o.o_lcs <- grow o.o_lcs 0;
    o.o_names <- grow o.o_names 0
  end;
  Array.unsafe_set o.o_toks n tok;
  Array.unsafe_set o.o_lcs n ((line lsl col_bits) lor col);
  Array.unsafe_set o.o_names n name;
  o.n <- n + 1

(* The character after a backslash, at [src.[i]]; the literal starts at
   [line:col]. *)
let escape file line col src i =
  if i >= String.length src then err file line col "unterminated escape"
  else
    match String.unsafe_get src i with
    | 'n' -> '\n'
    | 't' -> '\t'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | c -> err file line col "unknown escape '\\%c'" c

let is_digit c = c >= '0' && c <= '9'

let is_alnum = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let next_is src j c = j < String.length src && String.unsafe_get src j = c

let scan ~file src =
  let len = String.length src in
  let cap = (len / 3) + 16 in
  let o =
    { o_toks = Array.make cap Token.EOF; o_lcs = Array.make cap 0;
      o_names = Array.make cap 0; n = 0 }
  in
  let sp = spellings () in
  let i = ref 0 and line = ref 1 and bol = ref 0 in
  let fin = ref false in
  while not !fin do
    (* whitespace and (nested) comments *)
    let skipping = ref true in
    while !skipping && !i < len do
      match String.unsafe_get src !i with
      | ' ' | '\t' | '\r' -> incr i
      | '\n' ->
        incr i;
        incr line;
        bol := !i
      | '(' when next_is src (!i + 1) '*' ->
        let cl = !line and cc = !i - !bol + 1 in
        i := !i + 2;
        let depth = ref 1 in
        while !depth > 0 do
          if !i >= len then err file cl cc "unterminated comment";
          let c = String.unsafe_get src !i in
          if c = '*' && next_is src (!i + 1) ')' then begin
            i := !i + 2;
            decr depth
          end
          else if c = '(' && next_is src (!i + 1) '*' then begin
            i := !i + 2;
            incr depth
          end
          else begin
            incr i;
            if c = '\n' then begin
              incr line;
              bol := !i
            end
          end
        done
      | _ -> skipping := false
    done;
    let tl = !line and tc = !i - !bol + 1 in
    if !i >= len then begin
      push o Token.EOF tl tc 0;
      fin := true
    end
    else
      match String.unsafe_get src !i with
      | '0' .. '9' ->
        let start = !i in
        let n = ref 0 and overflow = ref false in
        while !i < len && is_digit (String.unsafe_get src !i) do
          let d = Char.code (String.unsafe_get src !i) - Char.code '0' in
          if !n > (max_int - d) / 10 then overflow := true
          else n := (!n * 10) + d;
          incr i
        done;
        if !overflow then
          err file !line (!i - !bol + 1) "integer literal out of range: %s"
            (String.sub src start (!i - start));
        push o (Token.INT !n) tl tc 0
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = !i and h = ref 0 in
        while !i < len && is_alnum (String.unsafe_get src !i) do
          h := hash_step !h (String.unsafe_get src !i);
          incr i
        done;
        let k =
          spelling sp src start (!i - start) !h (!h land (Array.length sp.slots - 1))
        in
        push o sp.ent_tok.(k) tl tc k
      | '\'' ->
        incr i;
        let c =
          if next_is src !i '\\' then begin
            let c = escape file tl tc src (!i + 1) in
            i := !i + 2;
            c
          end
          else if !i < len && String.unsafe_get src !i <> '\'' then begin
            let c = String.unsafe_get src !i in
            incr i;
            if c = '\n' then begin
              incr line;
              bol := !i
            end;
            c
          end
          else err file tl tc "malformed character literal"
        in
        if not (next_is src !i '\'') then
          err file tl tc "character literal missing closing quote";
        incr i;
        push o (Token.CHARLIT c) tl tc 0
      | '"' ->
        incr i;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= len then err file tl tc "unterminated string literal";
          match String.unsafe_get src !i with
          | '\n' -> err file tl tc "unterminated string literal"
          | '"' ->
            incr i;
            closed := true
          | '\\' ->
            Buffer.add_char buf (escape file tl tc src (!i + 1));
            i := !i + 2
          | c ->
            Buffer.add_char buf c;
            incr i
        done;
        push o (Token.STRING (Buffer.contents buf)) tl tc 0
      | c ->
        let tok : Token.t =
          match c with
          | ';' -> SEMI
          | ',' -> COMMA
          | ':' -> if next_is src (!i + 1) '=' then ASSIGN else COLON
          | '=' -> EQ
          | '#' -> NE
          | '<' -> if next_is src (!i + 1) '=' then LE else LT
          | '>' -> if next_is src (!i + 1) '=' then GE else GT
          | '+' -> PLUS
          | '-' -> MINUS
          | '*' -> STAR
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '[' -> LBRACKET
          | ']' -> RBRACKET
          | '^' -> CARET
          | '.' -> if next_is src (!i + 1) '.' then DOTDOT else DOT
          | c -> err file tl tc "unexpected character '%c'" c
        in
        i := !i + (match tok with ASSIGN | LE | GE | DOTDOT -> 2 | _ -> 1);
        push o tok tl tc 0
  done;
  { file; toks = o.o_toks; lcs = o.o_lcs; name_ix = o.o_names; count = o.n;
    names = Array.sub sp.ent_str 0 sp.n_ent;
    idents = Array.make sp.n_ent None;
    loc_tok = Array.make (loc_mask + 1) (-1);
    loc_val = Array.make (loc_mask + 1) Loc.dummy }
