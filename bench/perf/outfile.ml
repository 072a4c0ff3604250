(* The --out file: one flat JSON object per line, so it can be written
   and read back without a JSON library.  Values are strings, numbers,
   booleans or null; nothing nests. *)

type value = S of string | F of float | I of int | B of bool | Null

type line = (string * value) list

(* %.17g round-trips every float; JSON has no nan or infinity. *)
let render_value = function
  | S s -> "\"" ^ Kard_harness.Json_report.escape s ^ "\""
  | F f when Float.is_integer f && abs_float f < 1e15 -> Printf.sprintf "%.1f" f
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ | Null -> "null"
  | I i -> string_of_int i
  | B b -> string_of_bool b

let render (line : line) =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> render_value (S k) ^ ": " ^ render_value v) line)
  ^ "}"

exception Parse_error of string

let parse s : line =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d of %S" what !pos s)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () = while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done in
  let expect c = skip_ws (); if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "dangling escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           if !pos + 4 > n then fail "short \\u escape";
           Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s !pos 4) land 0xff));
           pos := !pos + 4
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let value () =
    skip_ws ();
    match peek () with
    | '"' -> S (string ())
    | 't' -> literal "true" (B true)
    | 'f' -> literal "false" (B false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-.0123456789eE" s.[!pos] do incr pos done;
      let tok = String.sub s start (!pos - start) in
      (match int_of_string_opt tok with
       | Some i -> I i
       | None -> (match float_of_string_opt tok with Some f -> F f | None -> fail "bad number"))
  in
  expect '{';
  skip_ws ();
  let fields =
    if peek () = '}' then (incr pos; [])
    else
      let rec fields acc =
        skip_ws ();
        let k = string () in
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' -> incr pos; fields ((k, v) :: acc)
        | '}' -> incr pos; List.rev ((k, v) :: acc)
        | _ -> fail "expected , or }"
      in
      fields []
  in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  fields

let write path lines =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (render l); output_char oc '\n') lines)

let read path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | "" -> go acc
        | l -> go (parse l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let str line k = match List.assoc_opt k line with Some (S s) -> Some s | _ -> None

let num line k =
  match List.assoc_opt k line with
  | Some (F f) -> Some f
  | Some (I i) -> Some (float_of_int i)
  | _ -> None

let bool line k = match List.assoc_opt k line with Some (B b) -> b | _ -> false
