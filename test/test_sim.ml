(* Tests for the discrete-event engine and its synchronization primitives. *)

open Sim

let run_sim ?seed ?until f =
  let e = Engine.create ?seed () in
  Engine.run ?until e f

let check_float = Alcotest.(check (float 1e-9))

(* --- Vacated slots do not pin removed elements ------------------------ *)

(* [alloc n] makes [n] fresh heap blocks, each watched by a weak pointer.
   Allocating in a separate, non-inlined function keeps no stray stack
   reference to them in the caller. *)
let[@inline never] alloc n =
  let xs = List.init n (fun i -> ref i) in
  let w = Weak.create n in
  List.iteri (fun i x -> Weak.set w i (Some x)) xs;
  (xs, w)

let collected w i =
  Gc.full_major ();
  Option.is_none (Weak.get w i)

let test_vec_drop_releases () =
  let v = Vec.create () in
  let w =
    let xs, w = alloc 4 in
    List.iter (Vec.push v) xs;
    w
  in
  Vec.drop v 3;
  Alcotest.(check int) "one left" 1 (Vec.length v);
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "dropped %d collectable" i) true
        (collected w i))
    [ 0; 1; 2 ];
  Alcotest.(check int) "survivor intact" 3 !(Vec.get v 0)

let test_vec_truncate_releases () =
  let v = Vec.create () in
  let w =
    let xs, w = alloc 3 in
    List.iter (Vec.push v) xs;
    w
  in
  Vec.truncate v 1;
  Alcotest.(check bool) "truncated 1 collectable" true (collected w 1);
  Alcotest.(check bool) "truncated 2 collectable" true (collected w 2);
  Alcotest.(check int) "survivor intact" 0 !(Vec.get v 0);
  Vec.truncate v 0;
  Alcotest.(check bool) "emptied collectable" true (collected w 0)

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)

let test_heap_order () =
  let order = ref [] in
  run_sim (fun () ->
      List.iteri
        (fun i at ->
          Engine.schedule ~at (fun () -> order := (Engine.now (), i) :: !order))
        [ 5.0; 1.0; 4.0; 1.0; 3.0; 9.0; 2.0 ]);
  Alcotest.(check (list (pair (float 0.0) int)))
    "time, then push order"
    [ (1.0, 1); (1.0, 3); (2.0, 6); (3.0, 4); (4.0, 2); (5.0, 0); (9.0, 5) ]
    (List.rev !order)

(* 10,000 armed-then-cancelled 60 s timers (an RPC timeout's worth of
   requests) cost no event, and the engine goes quiet at its last live
   event, not at their deadline. *)
let test_cancelled_timers_cost_nothing () =
  let e = Engine.create () in
  Engine.run e (fun () ->
      let ts =
        List.init 10_000 (fun _ ->
            Timer.after 60_000.0 (fun () -> failwith "cancelled timer ran"))
      in
      Engine.sleep 1.0;
      List.iter Timer.cancel ts;
      Engine.sleep 1.0);
  Alcotest.(check int) "main's start and two wakeups" 3
    (Engine.events_processed e);
  let quiet_at = ref nan in
  Engine.run e (fun () -> quiet_at := Engine.now ());
  check_float "quiet at the last live event" 2.0 !quiet_at

(* Neither an event that ran nor a cancelled one stays reachable from
   the heap while other events are still queued. *)
let test_heap_releases_events () =
  run_sim (fun () ->
      Engine.schedule ~at:100.0 ignore;
      let[@inline never] arm () =
        let xs, w = alloc 3 in
        List.iteri
          (fun i x ->
            let ev = Engine.arm ~at:(float_of_int (i + 1)) (fun () -> incr x) in
            if i = 1 then Engine.cancel ev)
          xs;
        w
      in
      let w = arm () in
      Engine.sleep 10.0;
      List.iter
        (fun i ->
          Alcotest.(check bool) (Printf.sprintf "event %d collectable" i) true
            (collected w i))
        [ 0; 1; 2 ])

(* [Float.max] passes NaN through, and a NaN time would break the heap
   order silently. *)
let test_nan_deadline_rejected () =
  run_sim (fun () ->
      Alcotest.check_raises "sleep"
        (Invalid_argument "Engine.sleep: NaN duration") (fun () ->
          Engine.sleep nan);
      Alcotest.check_raises "schedule"
        (Invalid_argument "Engine.schedule: NaN time") (fun () ->
          Engine.schedule ~at:nan ignore);
      Alcotest.check_raises "timer"
        (Invalid_argument "Engine.schedule: NaN time") (fun () ->
          ignore (Timer.after nan ignore)))

(* Random programs run by the main fiber against a reference engine: a
   list of pending [(time, seq, action)] searched for its minimum. Small
   integer delays make same-time ties common. *)
type op = Sched of int | After of int | Cancel of int | Sleep of int

type action =
  | Callback of int (* a scheduled callback, by op index *)
  | Fire of int * [ `Armed | `Fired | `Cancelled ] ref (* a timer's event *)
  | Timer_fiber of int (* the fiber a fired timer spawns *)
  | Main of (int * op) list (* the main fiber resuming *)

let model ops =
  let now = ref 0.0 and seq = ref 0 and processed = ref 0 in
  let pending = ref [] and log = ref [] and timers = ref [] in
  let push at a =
    pending := (Float.max at !now, !seq, a) :: !pending;
    incr seq
  in
  let rec main = function
    | [] -> ()
    | (id, op) :: rest -> (
        match op with
        | Sched d ->
            push (!now +. float_of_int d) (Callback id);
            main rest
        | After d ->
            let st = ref `Armed in
            timers := st :: !timers;
            push (!now +. float_of_int d) (Fire (id, st));
            main rest
        | Cancel i ->
            (match !timers with
            | [] -> ()
            | l ->
                let st = List.nth l (i mod List.length l) in
                if !st = `Armed then begin
                  st := `Cancelled;
                  pending :=
                    List.filter
                      (function _, _, Fire (_, s) -> s != st | _ -> true)
                      !pending
                end);
            main rest
        | Sleep d -> push (!now +. float_of_int d) (Main rest))
  in
  push 0.0 (Main (List.mapi (fun i op -> (i, op)) ops));
  let rec loop () =
    match !pending with
    | [] -> ()
    | first :: _ ->
        let ((time, _, action) as ev) =
          List.fold_left
            (fun ((t, s, _) as best) ((t', s', _) as e) ->
              if t' < t || (t' = t && s' < s) then e else best)
            first !pending
        in
        pending := List.filter (fun e -> e != ev) !pending;
        now := time;
        incr processed;
        (match action with
        | Callback id | Timer_fiber id -> log := (time, id) :: !log
        | Fire (id, st) ->
            st := `Fired;
            push !now (Timer_fiber id)
        | Main rest -> main rest);
        loop ()
  in
  loop ();
  (List.rev !log, !processed)

let real ops =
  let e = Engine.create () in
  let log = ref [] in
  Engine.run e (fun () ->
      let timers = ref [] in
      let record id () = log := (Engine.now (), id) :: !log in
      List.iteri
        (fun id op ->
          match op with
          | Sched d ->
              Engine.schedule ~at:(Engine.now () +. float_of_int d) (record id)
          | After d -> timers := Timer.after (float_of_int d) (record id) :: !timers
          | Cancel i -> (
              match !timers with
              | [] -> ()
              | l -> Timer.cancel (List.nth l (i mod List.length l)))
          | Sleep d -> Engine.sleep (float_of_int d))
        ops);
  (List.rev !log, Engine.events_processed e)

let op_gen =
  QCheck.Gen.(
    let delay = int_range 0 5 in
    frequency
      [
        (3, map (fun d -> Sched d) delay);
        (3, map (fun d -> After d) delay);
        (2, map (fun i -> Cancel i) (int_range 0 20));
        (2, map (fun d -> Sleep d) delay);
      ])

let show_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | After d -> Printf.sprintf "After %d" d
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Sleep d -> Printf.sprintf "Sleep %d" d

let prop_heap_matches_model =
  QCheck.Test.make
    ~name:"matches the reference queue model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops -> real ops = model ops)

(* Minor words per queue operation, measured in a running engine after
   a warm-up run of the same operations has grown the queue to its
   working size. The budgets sit above what the engine allocates: for a
   sleep, its continuation and resume closure and no event; for a
   schedule, its boxed time besides; for a spawn, its closure and fiber
   handler besides a yield's. *)
let test_engine_allocation_budget () =
  let n = 10_000 in
  let per_op ops =
    ops ();
    let before = Gc.minor_words () in
    ops ();
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let tick () = () in
  let words = ref [] in
  run_sim (fun () ->
      let sleep =
        per_op (fun () ->
            for _ = 1 to n do
              Engine.sleep 1.0
            done)
      in
      let schedule =
        per_op (fun () ->
            for _ = 1 to n do
              Engine.schedule ~at:(Engine.now () +. 1.0) tick;
              Engine.sleep 1.0
            done)
      in
      let spawn =
        per_op (fun () ->
            for _ = 1 to n do
              Engine.spawn tick;
              Engine.yield ()
            done)
      in
      words :=
        [
          ("sleep", sleep, 10.0);
          ("schedule, then sleep while it runs", schedule, 16.0);
          ("spawn an empty fiber, then yield", spawn, 45.0);
        ]);
  List.iter
    (fun (op, w, budget) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words, budget %.0f" op w budget)
        true (w <= budget))
    !words

(* Random programs over every way an event enters the queue, against a
   reference model: a list of pending [(time, seq, action)] searched for
   its minimum. Fibers run [prog]s: scheduled callbacks in the past, now
   and the future, armed events and their cancellation (of pending,
   fired and cancelled events, from fibers and from callbacks at the
   same instant, and of events of an earlier engine whose slots the new
   one reuses), sleeps, yields, spawns and suspends resumed later by a
   callback. The run stops at an optional [until], possibly between the
   events due at an instant and the next future one. A second run with
   [until] in the past runs nothing, not even its main fiber, which the
   third run, to quiescence, starts. *)
module Order = struct
  type op =
    | Sched of int (* a callback at now + d; d < 0 is the past *)
    | Arm of int (* the same, cancellable *)
    | Cancel of int (* the i-th armed event, mod their count *)
    | Cancel_stale of int (* an event of an earlier engine *)
    | Cancel_at of int * int (* a callback at now + d cancels one *)
    | Sleep of int
    | Yield
    | Spawn of prog
    | Suspend of int (* a callback at now + d resumes the fiber *)

  (* Each op has a unique id: the fiber logs [2 id] when it runs the op,
     and the op's callback logs [2 id + 1]. *)
  and prog = (int * op) list

  type action =
    | Call of int
    | Fire of int * bool ref (* pending while true *)
    | Cancel_cb of int * int
    | Resume of prog
    | Wake of prog

  let model ~until prog =
    let now = ref 0.0 and seq = ref 0 and processed = ref 0 in
    let pending = ref [] and log = ref [] and armed = ref [] in
    let push at a =
      pending := (Float.max at !now, !seq, a) :: !pending;
      incr seq
    in
    let after d a = push (!now +. float_of_int d) a in
    let note id = log := (!now, id) :: !log in
    let cancel i =
      match !armed with
      | [] -> ()
      | l ->
          let cell = List.nth l (i mod List.length l) in
          if !cell then begin
            cell := false;
            pending :=
              List.filter
                (function _, _, Fire (_, c) -> c != cell | _ -> true)
                !pending
          end
    in
    let rec exec = function
      | [] -> ()
      | (id, op) :: rest -> (
          note (2 * id);
          match op with
          | Sched d ->
              after d (Call id);
              exec rest
          | Arm d ->
              let cell = ref true in
              armed := !armed @ [ cell ];
              after d (Fire (id, cell));
              exec rest
          | Cancel i ->
              cancel i;
              exec rest
          | Cancel_stale _ -> exec rest
          | Cancel_at (d, i) ->
              after d (Cancel_cb (id, i));
              exec rest
          | Sleep d -> after (max 0 d) (Resume rest)
          | Yield -> after 0 (Resume rest)
          | Spawn p ->
              after 0 (Resume p);
              exec rest
          | Suspend d -> after d (Wake rest))
    in
    let rec loop limit =
      match !pending with
      | [] -> ()
      | first :: _ ->
          let ((time, _, action) as ev) =
            List.fold_left
              (fun ((t, s, _) as best) ((t', s', _) as e) ->
                if t' < t || (t' = t && s' < s) then e else best)
              first !pending
          in
          if not (time > limit) then begin
            pending := List.filter (fun e -> e != ev) !pending;
            now := time;
            incr processed;
            (match action with
            | Call id -> note ((2 * id) + 1)
            | Fire (id, cell) ->
                cell := false;
                note ((2 * id) + 1)
            | Cancel_cb (id, i) ->
                note ((2 * id) + 1);
                cancel i
            | Resume p -> exec p
            | Wake p -> after 0 (Resume p));
            loop limit
          end
    in
    let run limit p =
      push !now (Resume p);
      loop limit;
      (List.rev !log, !processed)
    in
    let first = run (Option.value until ~default:infinity) prog in
    let second = run (-1.0) [] in
    (first, second, run infinity [])

  (* An earlier engine leaves events behind in each state: fired,
     cancelled and still pending. *)
  let stale_events () =
    let e = Engine.create () in
    let evs = ref [] in
    Engine.run ~until:2.5 e (fun () ->
        evs := List.init 8 (fun i -> Engine.arm ~at:(float_of_int (i mod 4)) ignore);
        Engine.cancel (List.nth !evs 5));
    Array.of_list !evs

  let real ~until prog =
    let stale = stale_events () in
    let e = Engine.create () in
    let log = ref [] and armed = ref [] in
    let note id = log := (Engine.now (), id) :: !log in
    let after d f = Engine.schedule ~at:(Engine.now () +. float_of_int d) f in
    let cancel i =
      match !armed with
      | [] -> ()
      | l -> Engine.cancel (List.nth l (i mod List.length l))
    in
    let rec exec prog =
      List.iter
        (fun (id, op) ->
          note (2 * id);
          match op with
          | Sched d -> after d (fun () -> note ((2 * id) + 1))
          | Arm d ->
              let ev =
                Engine.arm
                  ~at:(Engine.now () +. float_of_int d)
                  (fun () -> note ((2 * id) + 1))
              in
              armed := !armed @ [ ev ]
          | Cancel i -> cancel i
          | Cancel_stale i -> Engine.cancel stale.(i mod Array.length stale)
          | Cancel_at (d, i) ->
              after d (fun () ->
                  note ((2 * id) + 1);
                  cancel i)
          | Sleep d -> Engine.sleep (float_of_int d)
          | Yield -> Engine.yield ()
          | Spawn p -> Engine.spawn (fun () -> exec p)
          | Suspend d -> Engine.suspend (fun resume -> after d resume))
        prog
    in
    let run ?until main =
      Engine.run ?until e main;
      (List.rev !log, Engine.events_processed e)
    in
    let first = run ?until (fun () -> exec prog) in
    let second = run ~until:(-1.0) ignore in
    (first, second, run ignore)

  let op_gen =
    QCheck.Gen.(
      let d lo = int_range lo 4 in
      let i = int_range 0 30 in
      fix
        (fun self depth ->
          frequency
            ([
               (4, map (fun d -> Sched d) (d (-2)));
               (4, map (fun d -> Arm d) (d (-1)));
               (4, map (fun i -> Cancel i) i);
               (1, map (fun i -> Cancel_stale i) i);
               (2, map2 (fun d i -> Cancel_at (d, i)) (d 0) i);
               (3, map (fun d -> Sleep d) (int_range (-1) 3));
               (2, return Yield);
               (2, map (fun d -> Suspend d) (int_range 0 3));
             ]
            @
            if depth = 0 then []
            else
              [
                ( 2,
                  map
                    (fun p -> Spawn (List.map (fun op -> (0, op)) p))
                    (list_size (int_range 0 6) (self (depth - 1))) );
              ]))
        2)

  (* Numbers the ops in pre-order, from 1. *)
  let number ops =
    let n = ref 0 in
    let rec go p =
      List.map
        (fun (_, op) ->
          incr n;
          let id = !n in
          (id, match op with Spawn p -> Spawn (go p) | op -> op))
        p
    in
    go (List.map (fun op -> (0, op)) ops)

  let rec show (prog : prog) =
    String.concat "; "
      (List.map
         (fun (_, op) ->
           match op with
           | Sched d -> Printf.sprintf "Sched %d" d
           | Arm d -> Printf.sprintf "Arm %d" d
           | Cancel i -> Printf.sprintf "Cancel %d" i
           | Cancel_stale i -> Printf.sprintf "Cancel_stale %d" i
           | Cancel_at (d, i) -> Printf.sprintf "Cancel_at (%d, %d)" d i
           | Sleep d -> Printf.sprintf "Sleep %d" d
           | Yield -> "Yield"
           | Spawn p -> Printf.sprintf "Spawn [%s]" (show p)
           | Suspend d -> Printf.sprintf "Suspend %d" d)
         prog)

  (* A cut at an integer instant runs that instant's due-now events and
     none of the next future ones; a half-integer one falls between. *)
  let until_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return None);
          (3, map (fun k -> Some (float_of_int k)) (int_range 0 8));
          (1, map (fun k -> Some (float_of_int k +. 0.5)) (int_range 0 8));
        ])

  let prop =
    QCheck.Test.make ~name:"order matches the (time, push order) model"
      ~count:500
      (QCheck.make
         ~print:(fun (until, prog) ->
           Printf.sprintf "until %s: %s"
             (match until with None -> "-" | Some u -> string_of_float u)
             (show prog))
         QCheck.Gen.(
           pair until_gen
             (map number (list_size (int_range 0 40) op_gen))))
      (fun (until, prog) -> real ~until prog = model ~until prog)
end

(* ------------------------------------------------------------------ *)
(* Expiring                                                            *)

let test_expiring_forgets_after_deadline () =
  let t = Expiring.create 8 in
  Expiring.replace t "a" (ref 1);
  Expiring.replace t "b" (ref 2);
  Expiring.expire t "a" (Option.get (Expiring.find_opt t "a")) ~at:10.0;
  Expiring.prune t ~now:10.0;
  Alcotest.(check bool) "kept at the deadline" true (Expiring.mem t "a");
  Expiring.prune t ~now:10.5;
  Alcotest.(check bool) "forgotten after it" false (Expiring.mem t "a");
  Alcotest.(check bool) "no deadline, kept" true (Expiring.mem t "b")

(* A key re-bound to a fresh value survives the old value's deadline. *)
let test_expiring_rebound_survives () =
  let t = Expiring.create 8 in
  let old = ref 1 in
  Expiring.replace t "k" old;
  Expiring.expire t "k" old ~at:5.0;
  let fresh = ref 1 in
  Expiring.replace t "k" fresh;
  Expiring.prune t ~now:6.0;
  Alcotest.(check bool) "fresh binding kept" true
    (match Expiring.find_opt t "k" with Some v -> v == fresh | None -> false);
  Expiring.expire t "k" fresh ~at:8.0;
  Expiring.prune t ~now:9.0;
  Alcotest.(check int) "then forgotten" 0 (Expiring.length t)

(* A value reachable only through an expired, pruned binding is
   collectable: the slot its deadline held keeps no reference, whether
   the FIFO still holds later deadlines in the same or a later chunk, or
   is emptied. *)
let test_expiring_pruned_slot_releases () =
  let t = Expiring.create 8 in
  let bind k v ~at =
    Expiring.replace t k v;
    Expiring.expire t k v ~at
  in
  let w =
    let xs, w = alloc 3 in
    (* 0 and 1 are forgotten outright; key 2 is re-bound before its
       deadline, so its old value stays only in the FIFO. *)
    List.iteri (fun i x -> bind i x ~at:1.0) xs;
    w
  in
  Expiring.replace t 2 (ref (-1));
  for k = 3 to 700 do
    bind k (ref k) ~at:5.0
  done;
  Expiring.prune t ~now:2.0;
  Alcotest.(check int) "the rest kept" 699 (Expiring.length t);
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "pruned %d collectable" i) true
        (collected w i))
    [ 0; 1; 2 ];
  for k = 701 to 710 do
    bind k (ref k) ~at:6.0
  done;
  let w =
    let xs, w = alloc 1 in
    bind 0 (List.hd xs) ~at:7.0;
    w
  in
  Expiring.prune t ~now:8.0;
  Alcotest.(check int) "only the unexpiring binding left" 1 (Expiring.length t);
  Alcotest.(check bool) "emptied FIFO releases" true (collected w 0);
  bind 1 (ref 1) ~at:9.0;
  Expiring.prune t ~now:8.5;
  Alcotest.(check bool) "refilled after emptying" true (Expiring.mem t 1)

(* Per binding with a deadline, the table costs its hash bucket plus
   three FIFO slots; keys and values are not counted. *)
let test_expiring_footprint () =
  let n = 10_000 in
  let keys = Array.init n string_of_int in
  let vals = Array.init n (fun i -> ref i) in
  let t = Expiring.create 64 in
  Array.iteri
    (fun i k ->
      Expiring.replace t k vals.(i);
      Expiring.expire t k vals.(i) ~at:(float_of_int i))
    keys;
  let words =
    Obj.reachable_words (Obj.repr (t, keys, vals))
    - Obj.reachable_words (Obj.repr (keys, vals))
  in
  let per_binding = float_of_int words /. float_of_int n in
  if per_binding > 9.0 then
    Alcotest.failf "%.2f words per binding, want at most 9" per_binding

(* Random steps against a list model, over more deadlines than one FIFO
   chunk holds: out-of-order deadlines, keys re-bound before their old
   deadline, deadlines for values no longer bound, and long quiet
   spells that empty the FIFO. Values are fresh boxes, so the model's
   value ids stand for physical identity. *)
type expiring_step =
  | Bind of int
  | Unbind of int
  | Expire of int * int * int (* key, value id back from the newest, delay *)
  | Prune of int

let expiring_keys = 400

let show_expiring_step = function
  | Bind k -> Printf.sprintf "Bind %d" k
  | Unbind k -> Printf.sprintf "Unbind %d" k
  | Expire (k, back, d) -> Printf.sprintf "Expire (%d, %d, %d)" k back d
  | Prune d -> Printf.sprintf "Prune %d" d

let expiring_step_gen =
  QCheck.Gen.(
    let key = int_range 0 (expiring_keys - 1) in
    frequency
      [
        (3, map (fun k -> Bind k) key);
        (1, map (fun k -> Unbind k) key);
        ( 5,
          map3
            (fun k back d -> Expire (k, back, d))
            key
            (frequency [ (4, return 0); (1, int_range 1 5) ])
            (int_range (-20) 2000) );
        ( 2,
          map
            (fun d -> Prune d)
            (frequency [ (300, int_range 0 2); (1, int_range 0 4000) ]) );
      ])

let prop_expiring_matches_model =
  QCheck.Test.make ~name:"matches a list model" ~count:15
    (QCheck.make
       ~print:(fun steps ->
         String.concat "; " (List.map show_expiring_step steps))
       QCheck.Gen.(list_size (int_range 1000 3000) expiring_step_gen))
    (fun steps ->
      let t = Expiring.create 8 in
      (* Model: bindings as (key, id) with the newest first, pending
         deadlines oldest first, and every value box by id. *)
      let table = ref [] and fifo = Queue.create () in
      let boxes = Hashtbl.create 64 and next_id = ref 0 in
      let now = ref 0.0 and last = ref neg_infinity in
      let box id = Hashtbl.find boxes id in
      let agrees k =
        let want = List.assoc_opt k !table in
        (match (Expiring.find_opt t k, want) with
        | None, None -> true
        | Some v, Some id -> v == box id
        | _ -> false)
        && Expiring.length t = List.length !table
        && List.sort compare
             (Expiring.fold (fun k v acc -> (k, !v) :: acc) t [])
           = List.sort compare !table
      in
      List.for_all
        (fun step ->
          let k =
            match step with
            | Bind k ->
                let id = !next_id in
                incr next_id;
                Hashtbl.replace boxes id (ref id);
                Expiring.replace t k (box id);
                table := (k, id) :: List.remove_assoc k !table;
                k
            | Unbind k ->
                Expiring.remove t k;
                table := List.remove_assoc k !table;
                k
            | Expire (k, back, d) ->
                (* The value bound to [k], or an older one. *)
                let id =
                  match List.assoc_opt k !table with
                  | Some id when back = 0 -> id
                  | _ -> max 0 (!next_id - 1 - back)
                in
                if Hashtbl.mem boxes id then begin
                  let at = !now +. float_of_int d in
                  Expiring.expire t k (box id) ~at;
                  last := Float.max at !last;
                  Queue.push (!last, k, id) fifo
                end;
                k
            | Prune d ->
                now := !now +. float_of_int d;
                Expiring.prune t ~now:!now;
                let rec pop () =
                  match Queue.peek_opt fifo with
                  | Some (at, k, id) when !now > at ->
                      ignore (Queue.pop fifo);
                      if List.assoc_opt k !table = Some id then
                        table := List.remove_assoc k !table;
                      pop ()
                  | _ -> ()
                in
                pop ();
                0
          in
          agrees k)
        steps)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  (* Child stream differs from parent continuation. *)
  Alcotest.(check bool) "streams differ" true (Rng.bits64 child <> Rng.bits64 a)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let v = Rng.int r n in
      v >= 0 && v < n)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r 10.0 in
      v >= 0.0 && v < 10.0)

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_exponential_positive () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.exponential r ~mean:5.0 >= 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_sleep_advances_clock () =
  let final = ref 0.0 in
  run_sim (fun () ->
      check_float "starts at zero" 0.0 (Engine.now ());
      Engine.sleep 10.0;
      check_float "after sleep" 10.0 (Engine.now ());
      Engine.sleep 2.5;
      final := Engine.now ());
  check_float "accumulates" 12.5 !final

let test_negative_sleep_clamped () =
  run_sim (fun () ->
      Engine.sleep (-5.0);
      check_float "clamped" 0.0 (Engine.now ()))

let test_same_time_fifo () =
  let order = ref [] in
  run_sim (fun () ->
      for i = 1 to 5 do
        Engine.spawn (fun () -> order := i :: !order)
      done);
  Alcotest.(check (list int)) "spawn order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_sleep_interleaving () =
  let order = ref [] in
  run_sim (fun () ->
      Engine.spawn (fun () ->
          Engine.sleep 3.0;
          order := "c" :: !order);
      Engine.spawn (fun () ->
          Engine.sleep 1.0;
          order := "a" :: !order);
      Engine.spawn (fun () ->
          Engine.sleep 2.0;
          order := "b" :: !order));
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_yield_defers () =
  let order = ref [] in
  run_sim (fun () ->
      Engine.spawn (fun () ->
          order := "a1" :: !order;
          Engine.yield ();
          order := "a2" :: !order);
      Engine.spawn (fun () -> order := "b" :: !order));
  Alcotest.(check (list string)) "yield order" [ "a1"; "b"; "a2" ]
    (List.rev !order)

let test_fiber_error_propagates () =
  Alcotest.check_raises "fiber error"
    (Engine.Fiber_error ("boom", Failure "x"))
    (fun () ->
      run_sim (fun () -> Engine.spawn ~name:"boom" (fun () -> failwith "x")))

let test_until_caps_time () =
  let e = Engine.create () in
  let reached = ref false in
  Engine.run ~until:5.0 e (fun () ->
      Engine.sleep 10.0;
      reached := true);
  Alcotest.(check bool) "event beyond cap not run" false !reached;
  Alcotest.(check int) "fiber still live" 1 (Engine.live_fibers e)

let test_run_outside_raises () =
  Alcotest.check_raises "not running" Engine.Not_running (fun () ->
      ignore (Engine.now ()))

let test_blocked_fiber_quiescence () =
  let e = Engine.create () in
  Engine.run e (fun () ->
      Engine.spawn (fun () -> ignore (Ivar.read (Ivar.create ()))));
  Alcotest.(check int) "one blocked fiber" 1 (Engine.live_fibers e)

let test_schedule_callback () =
  let fired = ref [] in
  run_sim (fun () ->
      Engine.schedule ~at:7.0 (fun () -> fired := Engine.now () :: !fired);
      Engine.schedule ~at:3.0 (fun () -> fired := Engine.now () :: !fired));
  Alcotest.(check (list (float 1e-9))) "callbacks in time order" [ 3.0; 7.0 ]
    (List.rev !fired)

let test_engine_runs_twice () =
  (* Virtual time persists across run calls on the same engine. *)
  let e = Engine.create () in
  Engine.run e (fun () -> Engine.sleep 5.0);
  let final = ref 0.0 in
  Engine.run e (fun () ->
      Engine.sleep 3.0;
      final := Engine.now ());
  check_float "time persisted" 8.0 !final

let test_rng_exponential_mean () =
  let r = Rng.create 9 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 50" true (mean > 47.0 && mean < 53.0)

let test_rng_lognormal_median () =
  let r = Rng.create 10 in
  let samples = List.init 9999 (fun _ -> Rng.lognormal r ~mu:0.0 ~sigma:0.25) in
  let sorted = List.sort Float.compare samples in
  let median = List.nth sorted 5000 in
  (* median of lognormal(mu, sigma) is exp(mu) = 1. *)
  Alcotest.(check bool) "median near 1" true (median > 0.95 && median < 1.05)

(* A trace-based determinism property: same seed gives the same sequence of
   (time, id) observations even with randomized sleeps. *)
let trace seed =
  let acc = ref [] in
  run_sim ~seed (fun () ->
      let r = Engine.rng () in
      for i = 1 to 20 do
        Engine.spawn (fun () ->
            Engine.sleep (Rng.float r 100.0);
            acc := (Engine.now (), i) :: !acc)
      done);
  List.rev !acc

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are reproducible from seed" ~count:25
    QCheck.small_int (fun seed -> trace seed = trace seed)

(* ------------------------------------------------------------------ *)
(* Ivar                                                                *)

let test_ivar_fill_then_read () =
  run_sim (fun () ->
      let iv = Ivar.create () in
      Ivar.fill iv 42;
      Alcotest.(check int) "read full" 42 (Ivar.read iv);
      Alcotest.(check bool) "is_full" true (Ivar.is_full iv))

let test_ivar_read_blocks_until_fill () =
  let got = ref 0 in
  run_sim (fun () ->
      let iv = Ivar.create () in
      Engine.spawn (fun () -> got := Ivar.read iv);
      Engine.spawn (fun () ->
          Engine.sleep 5.0;
          Ivar.fill iv 9);
      Engine.sleep 10.0;
      Alcotest.(check int) "woken with value" 9 !got)

let test_ivar_multiple_readers () =
  let got = ref [] in
  run_sim (fun () ->
      let iv = Ivar.create () in
      for i = 1 to 3 do
        Engine.spawn (fun () ->
            let v = Ivar.read iv in
            got := (i, v) :: !got)
      done;
      Engine.sleep 1.0;
      Ivar.fill iv 7;
      Engine.sleep 1.0;
      Alcotest.(check (list (pair int int))) "all woken FIFO"
        [ (1, 7); (2, 7); (3, 7) ]
        (List.rev !got))

let test_ivar_double_fill () =
  run_sim (fun () ->
      let iv = Ivar.create () in
      Ivar.fill iv 1;
      Alcotest.(check bool) "try_fill fails" false (Ivar.try_fill iv 2);
      Alcotest.check_raises "fill raises"
        (Invalid_argument "Ivar.fill: already full") (fun () ->
          Ivar.fill iv 3);
      Alcotest.(check (option int)) "value unchanged" (Some 1) (Ivar.peek iv))

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)

let test_timer_fires () =
  let at = ref (-1.0) in
  run_sim (fun () ->
      let t = Timer.after 8.0 (fun () -> at := Engine.now ()) in
      Engine.sleep 20.0;
      Alcotest.(check bool) "fired" true (Timer.fired t));
  check_float "fired on time" 8.0 !at

let test_timer_cancel () =
  let fired = ref false in
  run_sim (fun () ->
      let t = Timer.after 8.0 (fun () -> fired := true) in
      Engine.sleep 2.0;
      Timer.cancel t;
      Engine.sleep 20.0;
      Alcotest.(check bool) "cancelled flag" true (Timer.cancelled t));
  Alcotest.(check bool) "did not fire" false !fired

let test_timer_cancel_after_fire () =
  run_sim (fun () ->
      let t = Timer.after 1.0 (fun () -> ()) in
      Engine.sleep 5.0;
      Timer.cancel t;
      Alcotest.(check bool) "still fired" true (Timer.fired t);
      Alcotest.(check bool) "not cancelled" false (Timer.cancelled t))

let test_timer_callback_can_block () =
  let steps = ref [] in
  run_sim (fun () ->
      let _ =
        Timer.after 1.0 (fun () ->
            steps := `Start :: !steps;
            Engine.sleep 3.0;
            steps := `End :: !steps)
      in
      Engine.sleep 10.0);
  Alcotest.(check int) "both steps ran" 2 (List.length !steps)

(* Cancelling releases the callback, and with it whatever the callback
   captured, while the timer's event is still queued. *)
let test_timer_cancel_releases_callback () =
  run_sim (fun () ->
      let[@inline never] arm () =
        let xs, w = alloc 1 in
        let payload = List.hd xs in
        (Timer.after 60_000.0 (fun () -> incr payload), w)
      in
      let t, w = arm () in
      Alcotest.(check bool) "held while armed" false (collected w 0);
      Timer.cancel t;
      Alcotest.(check bool) "collectable once cancelled" true (collected w 0);
      Engine.sleep 1.0)

(* A timer cancelled while its engine is not running stays in that
   engine's queue, but its callback never runs. *)
let test_timer_cancel_outside_run () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = ref None in
  Engine.run ~until:1.0 e (fun () ->
      timer := Some (Timer.after 5.0 (fun () -> fired := true)));
  Timer.cancel (Option.get !timer);
  Engine.run e ignore;
  Alcotest.(check bool) "did not fire" false !fired

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim"
    [
      ( "event-heap",
        [
          Alcotest.test_case "runs in (time, seq) order" `Quick
            test_heap_order;
          Alcotest.test_case "cancelled timers cost no events" `Quick
            test_cancelled_timers_cost_nothing;
          Alcotest.test_case "run and cancelled events released" `Quick
            test_heap_releases_events;
          Alcotest.test_case "NaN deadlines rejected" `Quick
            test_nan_deadline_rejected;
          Alcotest.test_case "queue operations within allocation budget"
            `Quick test_engine_allocation_budget;
        ]
        @ qsuite [ prop_heap_matches_model; Order.prop ] );
      ( "vec",
        [
          Alcotest.test_case "drop releases" `Quick test_vec_drop_releases;
          Alcotest.test_case "truncate releases" `Quick
            test_vec_truncate_releases;
        ] );
      ( "expiring",
        [
          Alcotest.test_case "forgets after deadline" `Quick
            test_expiring_forgets_after_deadline;
          Alcotest.test_case "re-bound key survives" `Quick
            test_expiring_rebound_survives;
          Alcotest.test_case "pruned slots release" `Quick
            test_expiring_pruned_slot_releases;
          Alcotest.test_case "footprint" `Quick test_expiring_footprint;
        ]
        @ qsuite [ prop_expiring_matches_model ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "exponential positive" `Quick
            test_rng_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "lognormal median" `Quick test_rng_lognormal_median;
        ]
        @ qsuite [ prop_rng_int_bounds; prop_rng_float_bounds ] );
      ( "engine",
        [
          Alcotest.test_case "sleep advances clock" `Quick
            test_sleep_advances_clock;
          Alcotest.test_case "negative sleep clamped" `Quick
            test_negative_sleep_clamped;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "sleep interleaving" `Quick test_sleep_interleaving;
          Alcotest.test_case "yield defers" `Quick test_yield_defers;
          Alcotest.test_case "fiber error propagates" `Quick
            test_fiber_error_propagates;
          Alcotest.test_case "until caps time" `Quick test_until_caps_time;
          Alcotest.test_case "ops outside run raise" `Quick
            test_run_outside_raises;
          Alcotest.test_case "blocked fiber quiescence" `Quick
            test_blocked_fiber_quiescence;
          Alcotest.test_case "schedule callbacks" `Quick test_schedule_callback;
          Alcotest.test_case "engine runs twice" `Quick test_engine_runs_twice;
        ]
        @ qsuite [ prop_engine_deterministic ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick
            test_ivar_read_blocks_until_fill;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cancel" `Quick test_timer_cancel;
          Alcotest.test_case "cancel after fire" `Quick
            test_timer_cancel_after_fire;
          Alcotest.test_case "callback can block" `Quick
            test_timer_callback_can_block;
          Alcotest.test_case "cancel releases callback" `Quick
            test_timer_cancel_releases_callback;
          Alcotest.test_case "cancel outside the run" `Quick
            test_timer_cancel_outside_run;
        ] );
    ]
