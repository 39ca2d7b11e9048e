(* Binary view persistence, format v2.

   Layout:  "XVM2" | body | crc32(magic+body) as 4 big-endian bytes
   where body is the v1 tuple stream (varint-framed counts, Dewey-encoded
   cell ids, optional val/cont payloads). The decoder is written so that
   [load] on ARBITRARY bytes either reconstructs a correct view or raises
   [Corrupt] — it must never crash with another exception, loop, or
   allocate unboundedly from attacker-controlled lengths:

   - the CRC-32 footer rejects accidental corruption up front;
   - varints are capped at 9 bytes (an OCaml int has 63 bits; the 9th
     byte must terminate with its top two bits clear), so shifting never
     leaves the defined range of [lsl];
   - every declared length/count is validated against the bytes that
     remain before anything is allocated or looped over;
   - residual decoder exceptions (e.g. [Dewey.decode] on a stale-but-
     CRC-valid image) are converted to [Corrupt], among them
     [Mview.restore_entry]'s refusal of a duplicated tuple or of a cell
     whose identifier the store never interned. *)

exception Corrupt of string

let magic = "XVM2"
let magic_v1 = "XVM1"
let footer_len = 4

let add_varint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_opt buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some s ->
    Buffer.add_char buf '\x01';
    add_string buf s

let obs = Obs.Scope.v "codec"
let c_saves = Obs.Scope.counter obs "saves"
let c_save_bytes = Obs.Scope.counter obs "save_bytes"
let c_loads = Obs.Scope.counter obs "loads"
let c_load_bytes = Obs.Scope.counter obs "load_bytes"

let save mv =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  add_varint buf (Pattern.node_count mv.Mview.pat);
  add_varint buf (Array.length mv.Mview.stored);
  add_varint buf (Mview.cardinality mv);
  Mview.iter_entries mv (fun e ->
      add_varint buf e.Mview.count;
      Array.iter
        (fun c ->
          add_string buf (Dewey.encode c.Mview.cell_id);
          add_opt buf c.Mview.cell_value;
          add_opt buf c.Mview.cell_content)
        e.Mview.cells);
  let body = Buffer.contents buf in
  let crc = Crc32.string body in
  let footer = Bytes.create footer_len in
  Bytes.set footer 0 (Char.chr ((crc lsr 24) land 0xff));
  Bytes.set footer 1 (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set footer 2 (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set footer 3 (Char.chr (crc land 0xff));
  let image = body ^ Bytes.to_string footer in
  Obs.Counter.incr c_saves;
  Obs.Counter.add c_save_bytes (String.length image);
  image

(* [limit] is the end of the body (total length minus the footer): no
   read may cross it. *)
type reader = { src : string; limit : int; mutable pos : int }

let remaining r = r.limit - r.pos

let read_byte r =
  if r.pos >= r.limit then raise (Corrupt "truncated");
  let b = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  b

(* At most 9 bytes: 8 × 7 payload bits plus a final byte contributing
   bits 56–61. The final byte must have bit 7 (continuation) and bit 6
   (would set bit 62, overflowing a 63-bit int) clear. *)
let read_varint r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let byte = read_byte r in
    if !shift = 56 then begin
      if byte land 0xc0 <> 0 then raise (Corrupt "varint overflow");
      v := !v lor (byte lsl 56);
      continue := false
    end
    else begin
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue := false
    end
  done;
  !v

let read_string r =
  let n = read_varint r in
  if n > remaining r then
    raise (Corrupt (Printf.sprintf "declared length %d exceeds %d remaining bytes" n (remaining r)));
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_opt r =
  match read_byte r with
  | 0 -> None
  | 1 -> Some (read_string r)
  | _ -> raise (Corrupt "bad option tag")

let load ?policy store pat data =
  Obs.Counter.incr c_loads;
  Obs.Counter.add c_load_bytes (String.length data);
  let n = String.length data in
  if n < 4 then raise (Corrupt "truncated header");
  (match String.sub data 0 4 with
  | m when m = magic -> ()
  | m when m = magic_v1 ->
    raise (Corrupt "unsupported codec version 1 (re-save the view)")
  | _ -> raise (Corrupt "bad magic"));
  if n < 4 + footer_len then raise (Corrupt "truncated header");
  let body_len = n - footer_len in
  let stored_crc =
    (Char.code data.[body_len] lsl 24)
    lor (Char.code data.[body_len + 1] lsl 16)
    lor (Char.code data.[body_len + 2] lsl 8)
    lor Char.code data.[body_len + 3]
  in
  if Crc32.string ~len:body_len data <> stored_crc then
    raise (Corrupt "checksum mismatch");
  let r = { src = data; limit = body_len; pos = 4 } in
  try
    let k = read_varint r in
    if k <> Pattern.node_count pat then raise (Corrupt "pattern node count mismatch");
    let stored = read_varint r in
    if stored <> List.length (Pattern.stored_nodes pat) then
      raise (Corrupt "stored-attribute arity mismatch");
    let entries = read_varint r in
    (* Each entry occupies at least one count byte plus, per cell, an id
       length byte and two option tags — reject impossible counts before
       entering the loop. *)
    let min_entry = 1 + (3 * stored) in
    if min_entry > 0 && entries > remaining r / min_entry then
      raise (Corrupt "declared entry count exceeds remaining bytes");
    let mv = Mview.empty_shell ?policy store pat in
    for _ = 1 to entries do
      let count = read_varint r in
      if count < 1 then raise (Corrupt "bad derivation count");
      let cells =
        Array.init stored (fun _ ->
            let id =
              try Dewey.decode (read_string r)
              with Invalid_argument m -> raise (Corrupt m)
            in
            let value = read_opt r in
            let content = read_opt r in
            Mview.restored_cell mv id ~value ~content)
      in
      Mview.restore_entry mv ~count ~cells
    done;
    if r.pos <> r.limit then raise (Corrupt "trailing bytes");
    mv
  with
  | Corrupt _ as e -> raise e
  | Invalid_argument m | Failure m -> raise (Corrupt m)

(* Crash-safe: the image lands in a temp file first and is renamed over
   [path] only after it is fully written and fsynced, so an interrupted
   save can never clobber the previous good image. *)
let save_to_file mv path =
  let data = save mv in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     let n = String.length data in
     let written = ref 0 in
     while !written < n do
       written := !written + Unix.write_substring fd data !written (n - !written)
     done;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load_from_file ?policy store pat path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  load ?policy store pat data
