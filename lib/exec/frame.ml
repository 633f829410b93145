(* The one framed-record codec: the journal's lines, the worker wire's
   frames and the store's checksums all go through here.

   A frame is one text line,

     <magic><len:8 hex>|<md5 hex of payload>|<payload, hex-armoured>\n

   where the length is the payload's byte count before armouring.  The
   decoder is strict — lowercase hex only, exact length, exact checksum
   — so a line decodes only if it is byte for byte what [encode] wrote
   for that payload.  Callers unmarshal the payload, and [Marshal] must
   never see bytes whose checksum did not verify. *)

(* --- hex armour --- *)

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.contents buf

exception Bad_hex

let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> raise Bad_hex

let hex_sub s off len =
  String.init (len / 2) (fun i ->
      Char.chr ((nibble s.[off + (2 * i)] lsl 4) lor nibble s.[off + (2 * i) + 1]))

let of_hex s =
  if String.length s mod 2 <> 0 then None
  else try Some (hex_sub s 0 (String.length s)) with Bad_hex -> None

let checksum payload = Digest.to_hex (Digest.string payload)

(* --- one frame --- *)

let encode ~magic payload =
  Printf.sprintf "%s%08x|%s|%s\n" magic (String.length payload)
    (checksum payload) (to_hex payload)

let decode ~magic line =
  let ml = String.length magic in
  (* magic, 8 hex, '|', 32 hex, '|', then exactly 2 * len payload chars *)
  let hex_start = ml + 42 in
  if
    String.length line < hex_start
    || String.sub line 0 ml <> magic
    || line.[ml + 8] <> '|'
    || line.[ml + 41] <> '|'
  then None
  else
    try
      let len =
        String.fold_left (fun n c -> (n lsl 4) lor nibble c) 0 (String.sub line ml 8)
      in
      if String.length line <> hex_start + (2 * len) then None
      else
        let payload = hex_sub line hex_start (2 * len) in
        if checksum payload = String.sub line (ml + 9) 32 then Some payload else None
    with Bad_hex -> None

(* --- resyncing line reader with garbage accounting --- *)

type 'a reader = {
  magic : string;
  parse : string -> 'a option; (* a verified payload to a record *)
  mutable pending : string; (* bytes received, no complete line yet *)
  queue : 'a Queue.t;
  mutable garbage : int; (* invalid lines / torn frames recovered past *)
}

let reader ~magic parse =
  { magic; parse; pending = ""; queue = Queue.create (); garbage = 0 }

let find_magic r line from =
  let n = String.length line and m = String.length r.magic in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = r.magic then Some i
    else go (i + 1)
  in
  go from

let rec handle_line r line =
  if String.length line <> 0 then
    match Option.bind (decode ~magic:r.magic line) r.parse with
    | Some v -> Queue.add v r.queue
    | None -> (
        r.garbage <- r.garbage + 1;
        (* resync: garbage glued in front of a valid frame *)
        match find_magic r line 1 with
        | Some i -> handle_line r (String.sub line i (String.length line - i))
        | None -> ())

let feed r s =
  let buf = r.pending ^ s in
  let rec go start =
    match String.index_from_opt buf start '\n' with
    | None -> r.pending <- String.sub buf start (String.length buf - start)
    | Some i ->
        handle_line r (String.sub buf start (i - start));
        go (i + 1)
  in
  go 0

let next r = Queue.take_opt r.queue
let garbage r = r.garbage

(* A writer that died mid-frame leaves a newline-less tail; at EOF it
   is either a complete frame missing only its newline or a counted
   torn frame. *)
let eof r =
  let rest = r.pending in
  r.pending <- "";
  if String.length rest <> 0 then handle_line r rest
