(* Lease authority of the LVI server engine (§ leases config).

   Grants are issued only on paths where the replied versions are known
   to equal primary at an instant when the key is not write-locked: the
   ro_fast reply, the slow-path read-only reply (under its read locks),
   and propagation flushes (freshly committed records). They piggyback
   on messages those paths send anyway, so granting costs no round trip.
   The write path settles every outstanding grant on its write set
   before the write may validate. *)

open Sim
open Server_state
module Transport = Net.Transport
module Kv = Store.Kv
module Locks = Store.Locks
module Tracer = Metrics.Tracer

(* Issue a lease on each (key, version) to [site]. No-ops unless leases
   are on, the site registered a revocation channel, and it is not the
   server's own location (a colocated runtime gains nothing). Keys
   write-locked at this instant are skipped: the locking writer is past
   its settle, so a grant now would escape it. *)
let grant_leases (t : t) ~site keys =
  let lc = t.config.leases in
  if
    (not lc.enabled)
    || site = t.config.loc
    || not (List.mem_assoc site t.lease_peers)
  then []
  else begin
    let now = Engine.now () in
    let until = now +. lc.duration in
    let grants =
      List.filter_map
        (fun (key, version) ->
          (* The caller's version may predate this instant (propagation
             flushes run a Nagle window after the commit they carry):
             only certify a version that is still primary's, for a key
             no writer holds. The peek-check-grant sequence has no
             blocking point, so it is atomic in the cooperative
             engine. *)
          let current =
            match Kv.peek t.kv key with
            | Some { Kv.version; _ } -> version
            | None -> 0
          in
          if version <> current || Locks.write_locked t.locks key then None
          else begin
            Lease.grant t.lease_tbl ~key ~site ~until;
            t.s_lease_grants <- t.s_lease_grants + 1;
            Some
              {
                Proto.lg_key = key;
                lg_version = version;
                lg_issued = now;
                lg_until = until;
              }
          end)
        keys
    in
    if grants <> [] then
      Tracer.record_batch t.tracer ~label:"lease_grant" (List.length grants);
    grants
  end

(* Write-path barrier: before a write to [keys] may validate or apply,
   every outstanding lease covering them must be dead. With revocation
   on, fire one revocation RPC per holding site in parallel and wait
   for the acks; sites that do not answer within revoke_timeout (or all
   of them, with revocation off) are waited out instead — sleep until
   the latest surviving grant's expiry plus the clock-skew bound ε.
   Bounded either way: a settle can delay a write, never wedge it.
   Settled grants are then forgotten, guarded by the snapshot's latest
   expiry so a fresh grant issued concurrently (possible only on the
   unlocked settle paths) is never silently orphaned. *)
let settle_write_leases ?(span = Tracer.none) (t : t) keys =
  let lc = t.config.leases in
  if lc.enabled && keys <> [] then begin
    match Lease.holders t.lease_tbl ~now:(Engine.now ()) keys with
    | [] -> ()
    | holders ->
        t.s_lease_blocked <- t.s_lease_blocked + 1;
        let latest =
          List.fold_left (fun acc (_, until) -> Float.max acc until) 0.0 holders
        in
        Tracer.with_phase t.tracer ~parent:span "lease_settle" (fun () ->
            let unsettled =
              if not lc.revoke then holders
              else begin
                let pending =
                  List.map
                    (fun (site, until) ->
                      let iv = Ivar.create () in
                      Engine.spawn ~name:"lease-revoke" (fun () ->
                          let acked =
                            match List.assoc_opt site t.lease_peers with
                            | None -> false
                            | Some svc ->
                                t.s_lease_revokes <- t.s_lease_revokes + 1;
                                Transport.call_timeout t.net
                                  ~from:t.config.loc
                                  ~timeout:lc.revoke_timeout svc
                                  { Proto.lr_keys = keys }
                                <> None
                          in
                          Ivar.fill iv acked);
                      ((site, until), iv))
                    holders
                in
                Tracer.record_batch t.tracer ~label:"lease_revoke"
                  (List.length pending);
                List.filter_map
                  (fun (holder, iv) ->
                    if Ivar.read iv then None else Some holder)
                  pending
              end
            in
            (match unsettled with
            | [] -> ()
            | _ ->
                t.s_lease_waits <- t.s_lease_waits + 1;
                let horizon =
                  List.fold_left
                    (fun acc (_, until) -> Float.max acc until)
                    0.0 unsettled
                  +. Server_config.lease_skew
                in
                let wait = horizon -. Engine.now () in
                if wait > 0.0 then begin
                  Tracer.record_queue t.tracer ~label:"lease_wait" wait;
                  Engine.sleep wait
                end);
            Lease.forget t.lease_tbl ~until_leq:latest keys)
  end
