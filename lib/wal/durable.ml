let scope = Obs.Scope.v "wal"
let c_journal = Obs.Scope.counter scope "journal.records"
let c_replay = Obs.Scope.counter scope "replay.records"
let c_checkpoints = Obs.Scope.counter scope "checkpoints"
let t_sync = Obs.Scope.timer scope "sync"
let t_checkpoint = Obs.Scope.timer scope "checkpoint"
let t_recover = Obs.Scope.timer scope "recover"

type t = {
  dir : string;
  mutable writer : Wal.writer;
  mutable ck_seq : int;
}

type outcome = {
  set : View_set.t;
  engine : t;
  ck_seq : int;
  replayed : int;
  skipped : int;
  rebuilt_views : string list;
  truncated : (string * Wal.damage) list;
}

let last_seq t = Wal.next_seq t.writer - 1
let durable_seq t = Wal.durable_seq t.writer

let journal t u =
  if not (Update.journalable u) then
    invalid_arg "Durable.journal: statement is not journalable (opaque forest)";
  Obs.Counter.incr c_journal;
  Wal.append t.writer (Update.to_string u)

let sync t =
  Obs.Timer.time t_sync @@ fun () -> Wal.sync t.writer

let install t set = View_set.set_journal set (Some (fun u -> ignore (journal t u)))

let init ~dir set =
  (match Checkpoint.read_manifest dir with
  | Some _ -> invalid_arg (Printf.sprintf "Durable.init: %s already has a manifest" dir)
  | None | (exception Checkpoint.Corrupt _) -> ());
  Checkpoint.write ~dir ~seq:0 set;
  let writer =
    Wal.create_writer
      ~path:(Filename.concat dir (Checkpoint.segment_name 1))
      ~next_seq:1
  in
  let t = { dir; writer; ck_seq = 0 } in
  install t set;
  t

let checkpoint t set =
  let seq = last_seq t in
  if seq > t.ck_seq then begin
    Obs.Timer.time t_checkpoint @@ fun () ->
    Wal.sync t.writer;
    (* Rotate before the manifest commits: the old segment's records are
       all <= seq, so [Checkpoint.write]'s segment GC is safe, and a
       crash between rotation and commit only leaves an extra (still
       contiguous) segment for replay to walk. *)
    let next_path = Filename.concat t.dir (Checkpoint.segment_name (seq + 1)) in
    if Wal.writer_path t.writer <> next_path then begin
      Wal.close_writer t.writer;
      t.writer <- Wal.create_writer ~path:next_path ~next_seq:(seq + 1)
    end;
    Checkpoint.write ~dir:t.dir ~seq set;
    t.ck_seq <- seq;
    Obs.Counter.incr c_checkpoints
  end

let close t = Wal.close_writer t.writer
let crash t = Wal.crash t.writer

let recover ~dir ~parse_pattern () =
  match Checkpoint.read_manifest dir with
  | None -> None
  | Some m ->
    Obs.Timer.time t_recover @@ fun () ->
    let set, rebuilt_views = Checkpoint.load ~dir ~parse_pattern m in
    let ck_seq = m.Checkpoint.m_seq in
    let replayed = ref 0 and skipped = ref 0 in
    let truncated = ref [] in
    let applied = ref ck_seq in
    (* Walk segments in start order; the scanner enforces that each is
       internally contiguous from its named start sequence. Damage or an
       unusable record truncates its segment at the record boundary and
       ends replay; segments past the cut (unreachable by sequence) are
       deleted so they cannot resurrect under a reused name later. In
       practice the only cut is a torn tail on the newest segment. *)
    let segments = Checkpoint.wal_segments dir in
    let stop = ref false in
    (* The segment appends resume into: the last one replay walked and
       kept. [None] = start a fresh segment at [applied + 1]. *)
    let resume = ref None in
    List.iter
      (fun (start, file) ->
        let path = Filename.concat dir file in
        if !stop then
          (* Replay ended early: this segment's records are unreachable. *)
          Sys.remove path
        else if start > !applied + 1 then begin
          (* A sequence gap between segments (stale future segment from
             an interrupted checkpoint): nothing in it can be applied. *)
          truncated := (file, Wal.Bad_sequence (0, !applied + 1, start)) :: !truncated;
          stop := true;
          Sys.remove path
        end
        else begin
          let scan = Wal.repair_file ~expect_seq:start path in
          resume := Some path;
          Array.iteri
            (fun i (seq, payload) ->
              if !stop then ()
              else if seq <= ck_seq then begin
                (* Covered by the checkpoint: a checked no-op. The record
                   must still parse — it was journaled by this engine. *)
                match Update.parse payload with
                | _ -> incr skipped
                | exception _ ->
                  truncated := (file, Wal.Crc_mismatch scan.Wal.offsets.(i)) :: !truncated;
                  Wal.truncate_at path scan.Wal.offsets.(i);
                  stop := true
              end
              else begin
                (* Scanner contiguity + the gap check above guarantee
                   [seq = applied + 1] here. *)
                assert (seq = !applied + 1);
                match Update.parse payload with
                | u ->
                  ignore (View_set.update set u);
                  applied := seq;
                  incr replayed;
                  Obs.Counter.incr c_replay
                | exception _ ->
                  (* CRC-valid but unparseable — a forged record. Cut
                     here: never apply what cannot be proven. *)
                  truncated := (file, Wal.Crc_mismatch scan.Wal.offsets.(i)) :: !truncated;
                  Wal.truncate_at path scan.Wal.offsets.(i);
                  stop := true
              end)
            scan.Wal.records;
          match scan.Wal.damage with
          | Some d when not !stop ->
            truncated := (file, d) :: !truncated;
            stop := true
          | _ -> ()
        end)
      segments;
    (* Resume appending where replay stopped: in the last kept segment
       (possibly just truncated), or a fresh one when none survived. *)
    let writer =
      match !resume with
      | Some path -> Wal.create_writer ~path ~next_seq:(!applied + 1)
      | None ->
        Wal.create_writer
          ~path:(Filename.concat dir (Checkpoint.segment_name (!applied + 1)))
          ~next_seq:(!applied + 1)
    in
    let engine = { dir; writer; ck_seq } in
    install engine set;
    Some
      {
        set;
        engine;
        ck_seq;
        replayed = !replayed;
        skipped = !skipped;
        rebuilt_views;
        truncated = List.rev !truncated;
      }
