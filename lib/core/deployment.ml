(* Named deployment features and what each one means as a
   [Framework.config]. Every caller that deploys a feature goes through
   [config], so a feature has exactly one meaning everywhere. *)

type feature = Replicated | Batched | Propagating | Leased | Sharded of int

let apply (c : Framework.config) = function
  | Replicated ->
      { c with server = { c.server with mode = Replicated { az_rtt = 1.5 } } }
  | Batched ->
      {
        c with
        server = { c.server with batching = Server.full_batching };
        fu_window = 2.0;
        fu_piggyback = true;
      }
  | Propagating ->
      {
        c with
        server = { c.server with propagation = Server.default_propagation };
      }
  | Leased ->
      { c with server = { c.server with leases = Server.default_leases } }
  | Sharded shards ->
      { c with sharding = Shard.Directory.Hash { shards } }

let config ?(base = Framework.default_config) features =
  List.fold_left apply base features

let feature_to_string = function
  | Replicated -> "replicated"
  | Batched -> "batched"
  | Propagating -> "propagating"
  | Leased -> "leased"
  | Sharded n -> Printf.sprintf "sharded=%d" n

let to_string = function
  | [] -> "paper"
  | features -> String.concat "," (List.map feature_to_string features)

let feature_of_string s =
  match s with
  | "replicated" -> Ok Replicated
  | "batched" -> Ok Batched
  | "propagating" -> Ok Propagating
  | "leased" -> Ok Leased
  | _ -> (
      match Scanf.sscanf_opt s "sharded=%u%!" Fun.id with
      | Some n when n >= 2 -> Ok (Sharded n)
      | Some _ ->
          Error (Printf.sprintf "%S: a sharded deployment needs N >= 2" s)
      | None -> Error (Printf.sprintf "unknown deployment feature %S" s))

let of_string = function
  | "paper" -> Ok []
  | s ->
      List.fold_right
        (fun token acc ->
          Result.bind acc (fun features ->
              Result.map (fun f -> f :: features) (feature_of_string token)))
        (String.split_on_char ',' s) (Ok [])
