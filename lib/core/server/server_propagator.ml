(* Propagation layer of the LVI server engine: applying committed writes
   to primary storage and fanning the resulting update records out to
   subscribed near-user caches through per-destination Nagle
   batchers. *)

open Sim
open Server_state
module Transport = Net.Transport
module Kv = Store.Kv
module Tracer = Metrics.Tracer

(* Apply committed writes to primary storage and return them as
   (key, value, version) records, ready for cache-update propagation. *)
let apply_updates (t : t) updates =
  List.map2
    (fun (k, v) (_, version) ->
      { Proto.up_key = k; up_value = v; up_version = version })
    updates
    (Kv.put_many t.kv updates)

(* Records for writes already applied to primary (deterministic
   re-execution commits inside [execute_on_primary]); the authoritative
   version is whatever primary holds now. Latency-free: the write just
   paid its storage access. *)
let committed_records (t : t) written =
  List.map
    (fun (k, v) ->
      let version =
        match Kv.peek t.kv k with Some { Kv.version; _ } -> version | None -> 0
      in
      { Proto.up_key = k; up_value = v; up_version = version })
    written

(* Fan committed update records out to every subscribed near-user cache
   except [exclude] (the site whose speculation produced them — it
   installed them at [Validated] time). Each record is stamped with the
   commit instant so receivers can report their freshness lag. The
   addition is queued behind the events already due at this instant
   rather than made inline: an inline addition would arm the window
   timer ahead of them and could reorder same-instant commits under a
   0 ms window. Nothing waits for the flush, which never blocks
   (granting leases and posting are latency-free). *)
let publish (t : t) ?exclude records =
  if t.config.propagation.enabled && records <> [] then
    let stamped = List.map (fun u -> (u, Engine.now ())) records in
    List.iter
      (fun (dst, batcher) ->
        if exclude <> Some dst then begin
          t.s_prop_records <- t.s_prop_records + List.length stamped;
          Engine.schedule ~at:(Engine.now ()) (fun () ->
              Batcher.add batcher stamped)
        end)
      t.subscribers

let fresh_updates (t : t) keys =
  List.map
    (fun (k, vo) ->
      match (vo : Kv.versioned option) with
      | Some { value; version } ->
          { Proto.up_key = k; up_value = value; up_version = version }
      | None -> { Proto.up_key = k; up_value = Dval.Unit; up_version = 0 })
    (Kv.get_many t.kv keys)

(* Register a near-user cache-update service as a propagation
   destination. One Nagle batcher per destination: records enqueued
   within prop_window virtual ms ship as a single cache_update message.
   A subscription at the server's own location is refused — the primary
   needs no cache feed — and with propagation disabled this is a no-op,
   keeping the seed configuration free of even idle batchers. *)
let subscribe (t : t) svc =
  let dst = Transport.service_location svc in
  if t.config.propagation.enabled then begin
    let prop = t.config.propagation in
    let batcher =
      Batcher.create ~window:prop.prop_window
        ~on_flush:(fun ~size ~queue_delay ->
          Tracer.record_batch t.tracer ~label:"propagation" size;
          Tracer.record_queue t.tracer ~label:"propagation" queue_delay)
        (fun stamped ->
          (* Update-mode flushes carry fresh committed values: piggyback
             lease grants for them (re-verified against primary at this
             instant — the window may have let a later write in).
             Invalidation mode ships no values, so nothing a lease could
             certify. *)
          let cu_leases =
            if prop.invalidate_only then []
            else
              Server_lease_authority.grant_leases t ~site:dst
                (List.map
                   (fun (u, _) -> (u.Proto.up_key, u.Proto.up_version))
                   stamped)
          in
          Transport.post t.net ~from:t.config.loc svc
            {
              Proto.cu_invalidate = prop.invalidate_only;
              cu_updates = stamped;
              cu_leases;
            })
    in
    t.subscribers <- t.subscribers @ [ (dst, batcher) ]
  end
