(* Configuration layer of the LVI server engine: every preset record
   and knob, and nothing that runs. Documented in server_config.mli. *)

type mode = Singleton | Replicated of { az_rtt : float }

type protocol_mutation = Skip_reexecution

type batching = {
  group_commit : bool;
  request_flush : bool;
  persist_window : float;
  admission : bool;
  append_cost : float;
}

let no_batching =
  {
    group_commit = false;
    request_flush = false;
    persist_window = 0.0;
    admission = false;
    append_cost = 0.0;
  }

let full_batching =
  {
    group_commit = true;
    request_flush = true;
    persist_window = 2.0;
    admission = true;
    append_cost = 0.0;
  }

type propagation = {
  enabled : bool;
  prop_window : float;
  invalidate_only : bool;
}

let no_propagation =
  { enabled = false; prop_window = 0.0; invalidate_only = false }

let default_propagation =
  { enabled = true; prop_window = 2.0; invalidate_only = false }

type leases = {
  enabled : bool;
  duration : float;
  revoke : bool;
  revoke_timeout : float;
}

let no_leases =
  { enabled = false; duration = 0.0; revoke = true; revoke_timeout = 0.0 }

let default_leases =
  { enabled = true; duration = 2000.0; revoke = true; revoke_timeout = 400.0 }

let lease_skew = 5.0

type config = {
  loc : Net.Location.t;
  intent_timeout : float;
  mode : mode;
  batching : batching;
  propagation : propagation;
  leases : leases;
}

let default_config =
  {
    loc = Net.Location.near_storage;
    intent_timeout = 1500.0;
    mode = Singleton;
    batching = no_batching;
    propagation = no_propagation;
    leases = no_leases;
  }
