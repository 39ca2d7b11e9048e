exception Corrupt of string

type view_spec = { vs_name : string; vs_compact : string; vs_file : string }

type manifest = {
  m_seq : int;
  m_gen : string;
  m_doc_crc : int;
  m_live : bool;
  m_views : view_spec list;
}

let manifest_magic = "XVMCK1"
let manifest_file = "MANIFEST"

let gen_name seq = Printf.sprintf "ck-%d" seq
let segment_name seq = Printf.sprintf "wal-%d.log" seq

let wal_segments dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           match Scanf.sscanf_opt f "wal-%d.log%!" (fun n -> n) with
           | Some n when n >= 1 -> Some (n, f)
           | _ -> None)
    |> List.sort compare

(* Small write-a-whole-file helper with an fsync before close: checkpoint
   files must be on disk before the manifest rename publishes them. *)
let write_file path data =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length data in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd data !written (n - !written)
      done;
      Unix.fsync fd)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let manifest_to_string m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf manifest_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "seq %d\n" m.m_seq);
  Buffer.add_string buf (Printf.sprintf "doc %d\n" m.m_doc_crc);
  if not m.m_live then Buffer.add_string buf "root dead\n";
  List.iter
    (fun vs ->
      Buffer.add_string buf
        (Printf.sprintf "view %s %S %S\n" vs.vs_file vs.vs_name vs.vs_compact))
    m.m_views;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let manifest_of_string data =
  let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt in
  match String.split_on_char '\n' data with
  | magic :: rest when magic = manifest_magic ->
    let seq = ref (-1) and doc_crc = ref (-1) in
    let live = ref true in
    let views = ref [] in
    let ended = ref false in
    List.iter
      (fun line ->
        if !ended || line = "" then ()
        else if line = "end" then ended := true
        else if line = "root dead" then live := false
        else
          match Scanf.sscanf_opt line "seq %d%!" (fun n -> n) with
          | Some n -> seq := n
          | None -> (
            match Scanf.sscanf_opt line "doc %d%!" (fun c -> c) with
            | Some c -> doc_crc := c
            | None -> (
              match
                Scanf.sscanf_opt line "view %s %S %S%!" (fun f n c -> (f, n, c))
              with
              | Some (vs_file, vs_name, vs_compact) ->
                views := { vs_file; vs_name; vs_compact } :: !views
              | None -> fail "manifest: unrecognized line %S" line)))
      rest;
    if not !ended then fail "manifest: missing end marker (torn write?)";
    if !seq < 0 then fail "manifest: missing seq";
    if !doc_crc < 0 then fail "manifest: missing doc CRC";
    {
      m_seq = !seq;
      m_gen = gen_name !seq;
      m_doc_crc = !doc_crc;
      m_live = !live;
      m_views = List.rev !views;
    }
  | _ -> fail "manifest: bad magic"

let read_manifest dir =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then None
  else Some (manifest_of_string (read_file path))

let write ~dir ~seq set =
  ensure_dir dir;
  let gen = gen_name seq in
  let gen_dir = Filename.concat dir gen in
  (* A half-written generation from an earlier crash is garbage: the
     manifest never pointed at it. Start clean. *)
  rm_rf gen_dir;
  ensure_dir gen_dir;
  (* [Doc_codec], not XML text: a live document can hold adjacent text
     siblings (after deletions) that serialize∘parse would merge, and
     sibling insertions mint fractional Dewey ordinals that canonical
     re-indexing would renumber — either way shifting identifiers out
     from under the view images persisted beside the document. The codec
     therefore carries each node's exact ordinal plus the label
     dictionary in code order. A deleted root leaves the store's tree
     handle dangling; the tree is still written (replay needs nothing
     from it) but flagged so recovery re-kills it. *)
  let store = View_set.store set in
  let root = Store.root store in
  let live = Store.mem store root in
  let dict = Store.dict store in
  let labels = List.init (Label_dict.size dict) (Label_dict.label dict) in
  let ord n = if live then Dewey.last_ord (Store.id_of store n) else [| 1 |] in
  let doc = Doc_codec.encode ~labels ~ord root in
  write_file (Filename.concat gen_dir "doc.bin") doc;
  let views =
    List.mapi
      (fun i mv ->
        let vs_file = Printf.sprintf "view-%d.xvm" i in
        Mview_codec.save_to_file mv (Filename.concat gen_dir vs_file);
        {
          vs_file;
          vs_name = mv.Mview.pat.Pattern.name;
          vs_compact = Pattern.to_string mv.Mview.pat;
        })
      (View_set.views set)
  in
  let m =
    { m_seq = seq; m_gen = gen; m_doc_crc = Crc32.string doc; m_live = live;
      m_views = views }
  in
  (* Commit point: the manifest rename. Everything before is invisible to
     recovery; everything after is garbage collection. *)
  let tmp = Filename.concat dir (manifest_file ^ ".tmp") in
  write_file tmp (manifest_to_string m);
  Sys.rename tmp (Filename.concat dir manifest_file);
  Array.iter
    (fun f ->
      if f <> gen && String.length f > 3 && String.sub f 0 3 = "ck-" then
        rm_rf (Filename.concat dir f))
    (Sys.readdir dir);
  (* Log segments are rotated by [Durable] before the manifest commits,
     so every segment starting at or below [seq] holds only covered
     records. *)
  List.iter
    (fun (start, f) ->
      if start <= seq then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (wal_segments dir)

let load ~dir ~parse_pattern m =
  let gen_dir = Filename.concat dir m.m_gen in
  let doc_path = Filename.concat gen_dir "doc.bin" in
  let doc =
    try read_file doc_path
    with Sys_error e -> raise (Corrupt ("checkpoint document unreadable: " ^ e))
  in
  if Crc32.string doc <> m.m_doc_crc then
    raise (Corrupt "checkpoint document fails its CRC");
  let img =
    try Doc_codec.decode doc
    with Doc_codec.Corrupt e -> raise (Corrupt ("checkpoint document: " ^ e))
  in
  (* Restore the dictionary code-for-code, then re-intern the exact
     identifiers the crashed store had minted. A dead document's image
     carries placeholder ordinals (its identifiers are gone), so it is
     indexed canonically before being killed again. *)
  let dict = Label_dict.create () in
  List.iter (fun l -> ignore (Label_dict.code dict l)) img.Doc_codec.labels;
  let ord_of = if m.m_live then Some img.Doc_codec.ord_of else None in
  let store = Store.of_document ~dict ?ord_of img.Doc_codec.root in
  if not m.m_live then begin
    Store.detach store img.Doc_codec.root;
    Store.commit store
  end;
  let set = View_set.create store in
  let rebuilt = ref [] in
  List.iter
    (fun vs ->
      let pat = parse_pattern ~name:vs.vs_name vs.vs_compact in
      let path = Filename.concat gen_dir vs.vs_file in
      match Mview_codec.load_from_file store pat path with
      | mv -> View_set.add_view set mv
      | exception (Mview_codec.Corrupt _ | Sys_error _) ->
        (* The document is authoritative; a damaged image costs a
           re-materialization, never correctness. *)
        rebuilt := vs.vs_name :: !rebuilt;
        ignore (View_set.add set pat))
    m.m_views;
  (set, List.rev !rebuilt)
