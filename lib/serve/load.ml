type config = {
  readers : int;
  duration : float;
  write_rate : float;
  closed_loop : bool;
  max_batch : int;
  seed : int;
}

let default =
  {
    readers = 2;
    duration = 1.0;
    write_rate = 0.;
    closed_loop = false;
    max_batch = 64;
    seed = 0;
  }

type latency = { p50 : float; p95 : float; p99 : float; mean : float; max : float }

type report = {
  wall_s : float;
  epochs : int;
  reads : int;
  read_rps : float;
  read_ms : latency option;
  writes_submitted : int;
  writes_rejected : int;
  writes_applied : int;
  write_visible_ms : latency option;
  max_batch_fill : int;
}

(* Growable float buffer: latencies are recorded on hot reader loops. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Load.percentile: empty";
  let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let digest samples =
  if Array.length samples = 0 then None
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let sum = Array.fold_left ( +. ) 0. sorted in
    Some
      {
        p50 = percentile sorted 0.5;
        p95 = percentile sorted 0.95;
        p99 = percentile sorted 0.99;
        mean = sum /. float_of_int n;
        max = sorted.(n - 1);
      }
  end

(* One reader iteration against the published snapshot. The mix touches
   every read path: point lookup + key membership, bounded count scan,
   aggregates, relation cardinalities. Results flow through
   [Sys.opaque_identity] so the work is not dead-code-eliminated. *)
let read_op rnd snap =
  let open Snapshot in
  let sink = ref 0 in
  let views = snap.views in
  let nviews = Array.length views in
  (if nviews = 0 then sink := snap.node_count
   else
     let v = views.(Random.State.int rnd nviews) in
     let card = Array.length v.v_tuples in
     match Random.State.int rnd 10 with
     | 0 | 1 | 2 | 3 ->
       if card > 0 then begin
         let tu = v.v_tuples.(Random.State.int rnd card) in
         sink := !sink + tu.t_count + Array.length tu.t_cells;
         if mem v tu.t_key then incr sink
       end
     | 4 | 5 | 6 ->
       if card > 0 then begin
         let off = Random.State.int rnd card in
         let stop = min card (off + 64) in
         for i = off to stop - 1 do
           sink := !sink + v.v_tuples.(i).t_count
         done
       end
     | 7 | 8 -> sink := !sink + v.v_total + card
     | _ ->
       let rels = snap.relations in
       if Array.length rels > 0 then begin
         let label, _ = rels.(Random.State.int rnd (Array.length rels)) in
         sink := !sink + relation_count snap label
       end);
  ignore (Sys.opaque_identity !sink)

let reader_loop server stop_flag seed idx =
  let rnd = Random.State.make [| seed; idx; 0x5eed |] in
  let lats = Fbuf.create () in
  let count = ref 0 in
  while not (Atomic.get stop_flag) do
    let t0 = Obs.now () in
    read_op rnd (Server.snapshot server);
    let t1 = Obs.now () in
    Fbuf.push lats ((t1 -. t0) *. 1000.);
    incr count
  done;
  (Fbuf.contents lats, !count)

(* The submitter records the wall-clock submit time of each {e admitted}
   statement (1-based index = the server's [applied] watermark once
   visible), so visibility latency can be joined against the publication
   log after the run. A statement the server turns away at admission
   (post-[stop] shutdown race) is counted as {e rejected}, never as
   submitted — so [writes_applied < writes_submitted] always means a
   statement was genuinely lost in flight. *)
let submitter_loop server stop_flag ~gen ~rate ~closed_loop ~deadline =
  let times = Fbuf.create () in
  let rejected = ref 0 in
  let start = Obs.now () in
  let continue_ () = (not (Atomic.get stop_flag)) && Obs.now () < deadline in
  let i = ref 0 in
  (try
     while continue_ () do
       if closed_loop then begin
         let u = gen !i in
         let t = Obs.now () in
         if not (Server.submit server u) then begin
           incr rejected;
           raise Exit
         end;
         Fbuf.push times t;
         incr i;
         let target = !i in
         (* Wait until the statement is visible in a published epoch. *)
         while
           continue_ ()
           && (Server.snapshot server).Snapshot.applied < target
         do
           Domain.cpu_relax ()
         done
       end
       else begin
         (* Open loop: the [i]-th submission is scheduled at
            [start + i/rate] regardless of service progress. *)
         let due = start +. (float_of_int !i /. rate) in
         let now = Obs.now () in
         if now < due then Unix.sleepf (min (due -. now) 0.01)
         else begin
           let u = gen !i in
           let t = Obs.now () in
           if not (Server.submit server u) then begin
             incr rejected;
             raise Exit
           end;
           Fbuf.push times t;
           incr i
         end
       end
     done
   with Exit -> ());
  (Fbuf.contents times, !rejected)

(* Join submit times against the publication log: statements with index
   in (applied_prev, applied] became visible when that epoch was
   published. *)
let visibility_latencies submit_times log =
  let lats = Fbuf.create () in
  let prev = ref 0 in
  List.iter
    (fun p ->
      let applied = p.Server.p_applied in
      for i = !prev to applied - 1 do
        if i < Array.length submit_times then
          Fbuf.push lats ((p.Server.p_time -. submit_times.(i)) *. 1000.)
      done;
      prev := max !prev applied)
    log;
  Fbuf.contents lats

let max_batch_fill log =
  let prev = ref 0 and m = ref 0 in
  List.iter
    (fun p ->
      m := max !m (p.Server.p_applied - !prev);
      prev := p.Server.p_applied)
    log;
  !m

(* [f ()], with an exception caught as a value (and its backtrace), so
   that one failure does not stop the joins that follow it. *)
let catch f = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
let get = function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run ?on_server config set ~gen =
  let server = Server.create ~max_batch:config.max_batch set in
  Option.iter (fun f -> f server) on_server;
  let stop_flag = Atomic.make false in
  let t0 = Obs.now () in
  let deadline = t0 +. config.duration in
  let readers =
    Array.init (max 0 config.readers) (fun idx ->
        Domain.spawn (fun () -> reader_loop server stop_flag config.seed idx))
  in
  let writing = config.write_rate > 0. || config.closed_loop in
  let submitter =
    if writing then
      Some
        (Domain.spawn (fun () ->
             submitter_loop server stop_flag ~gen ~rate:config.write_rate
               ~closed_loop:config.closed_loop ~deadline))
    else None
  in
  let timer =
    Domain.spawn (fun () ->
        let rec wait () =
          let remaining = deadline -. Obs.now () in
          if remaining > 0. && not (Atomic.get stop_flag) then begin
            Unix.sleepf (min remaining 0.05);
            wait ()
          end
        in
        wait ();
        Atomic.set stop_flag true;
        Server.stop server)
  in
  (* The serving loop itself runs here: this is the store's writer. On
     any exit the load is stopped and every domain joined before [run]
     returns or re-raises the first failure: a reader or submitter left
     running would spin. *)
  let served = catch (fun () -> Server.run server) in
  Atomic.set stop_flag true;
  Server.stop server;
  let timed = catch (fun () -> Domain.join timer) in
  let submitted =
    catch (fun () -> match submitter with Some d -> Domain.join d | None -> ([||], 0))
  in
  let read = Array.map (fun d -> catch (fun () -> Domain.join d)) readers in
  get served;
  get timed;
  let submit_times, rejected = get submitted in
  let reader_results = Array.map get read in
  let wall = Obs.now () -. t0 in
  let reads = Array.fold_left (fun acc (_, c) -> acc + c) 0 reader_results in
  let all_lats =
    Array.concat (Array.to_list (Array.map fst reader_results))
  in
  let log = Server.publish_log server in
  let final = Server.snapshot server in
  {
    wall_s = wall;
    epochs = Server.batches server;
    reads;
    read_rps = (if wall > 0. then float_of_int reads /. wall else 0.);
    read_ms = digest all_lats;
    writes_submitted = Array.length submit_times;
    writes_rejected = rejected;
    writes_applied = final.Snapshot.applied;
    write_visible_ms = digest (visibility_latencies submit_times log);
    max_batch_fill = max_batch_fill log;
  }
