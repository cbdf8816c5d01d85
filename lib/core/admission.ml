(* Conflict-aware admission for the LVI server's lock-and-persist
   section.

   A request enters admission before touching the lock table and leaves
   once its locks are acquired and persisted. Two requests conflict when
   the static matrix says their functions *may* conflict (Disjoint and
   Read_share verdicts admit with no further work — that is the fast
   path the analyzer buys us) AND their concrete key sets actually
   overlap (a write on one side against any access on the other).
   Non-conflicting requests are admitted concurrently, which is what
   lets the server batch their lock persistence into one Raft proposal;
   conflicting requests wait here, in arrival order, instead of
   interleaving half-acquired lock sets with the requests ahead of
   them.

   In-flight requests are filed under every key they touch. Two
   requests can only collide on a key they share, so a newcomer checks
   just the requests filed under its own keys, and its cost does not
   grow with everything else in flight.

   Waiters are admitted FIFO: a newcomer that conflicts with a *queued*
   request waits behind it even if the in-flight set alone would admit
   it — otherwise a stream of mutually-compatible newcomers could
   starve a waiter forever. Progress is guaranteed because admitted
   requests only wait on the lock table, whose holders release
   independently of admission (followup or intent expiry). *)

open Sim

type ticket = {
  t_fn : string;
  t_reads : string list;
  t_writes : string list;
  t_enqueued : float;
  mutable t_resume : (unit -> unit) option; (* Some while queued *)
}

type t = {
  may_conflict : string -> string -> bool;
  on_admit : waited:float -> unit;
  by_key : (string, ticket list) Hashtbl.t; (* in-flight, per key *)
  mutable inflight : int;
  mutable queue : ticket list; (* oldest first *)
  mutable waited : int;
}

let create ~may_conflict ?(on_admit = fun ~waited:_ -> ()) () =
  {
    may_conflict;
    on_admit;
    by_key = Hashtbl.create 64;
    inflight = 0;
    queue = [];
    waited = 0;
  }

let overlap xs ys = List.exists (fun x -> List.mem x ys) xs

let conflicts t a b =
  t.may_conflict a.t_fn b.t_fn
  && (overlap a.t_writes b.t_writes
     || overlap a.t_writes b.t_reads
     || overlap a.t_reads b.t_writes)

let conflicts_inflight t tk =
  let on_key k =
    match Hashtbl.find_opt t.by_key k with
    | Some filed -> List.exists (conflicts t tk) filed
    | None -> false
  in
  List.exists on_key tk.t_writes || List.exists on_key tk.t_reads

let blocked t tk ~ahead =
  conflicts_inflight t tk || List.exists (conflicts t tk) ahead

(* A key both read and written is filed once: the ticket is then
   already at the head of that key's list. *)
let admit t tk =
  t.inflight <- t.inflight + 1;
  let file k =
    match Hashtbl.find_opt t.by_key k with
    | Some (x :: _) when x == tk -> ()
    | Some filed -> Hashtbl.replace t.by_key k (tk :: filed)
    | None -> Hashtbl.replace t.by_key k [ tk ]
  in
  List.iter file tk.t_writes;
  List.iter file tk.t_reads

(* After an in-flight request leaves, admit every waiter (in order) that
   no longer conflicts with the in-flight set or with waiters still
   queued ahead of it. *)
let drain t =
  let rec go still_queued = function
    | [] -> List.rev still_queued
    | tk :: rest ->
        if blocked t tk ~ahead:still_queued then go (tk :: still_queued) rest
        else begin
          admit t tk;
          (match tk.t_resume with
          | Some resume ->
              tk.t_resume <- None;
              resume ()
          | None -> ());
          go still_queued rest
        end
  in
  t.queue <- go [] t.queue

let enter t ~fn ~reads ~writes =
  let tk =
    {
      t_fn = fn;
      t_reads = reads;
      t_writes = writes;
      t_enqueued = Engine.now ();
      t_resume = None;
    }
  in
  if blocked t tk ~ahead:t.queue then begin
    t.waited <- t.waited + 1;
    t.queue <- t.queue @ [ tk ];
    Engine.suspend (fun resume -> tk.t_resume <- Some (fun () -> resume ()));
    t.on_admit ~waited:(Engine.now () -. tk.t_enqueued)
  end
  else begin
    admit t tk;
    t.on_admit ~waited:0.0
  end;
  tk

let leave t tk =
  t.inflight <- t.inflight - 1;
  let unfile k =
    match Hashtbl.find_opt t.by_key k with
    | None -> ()
    | Some filed -> (
        match List.filter (fun x -> x != tk) filed with
        | [] -> Hashtbl.remove t.by_key k
        | rest -> Hashtbl.replace t.by_key k rest)
  in
  List.iter unfile tk.t_writes;
  List.iter unfile tk.t_reads;
  drain t

let inflight t = t.inflight

let waiting t = List.length t.queue

let waited t = t.waited
