type placement = Single of int | Cross

type t = { dir : Directory.t; memo : (string, placement) Hashtbl.t }

let create dir = { dir; memo = Hashtbl.create 32 }
let directory t = t.dir

let classify_now t (sm : Analyzer.Absint.summary) =
  if Directory.shards t.dir = 1 then Single 0
  else if sm.sm_top then Cross
  else
    let shapes = sm.sm_reads @ sm.sm_writes @ sm.sm_multi in
    match shapes with
    | [] -> Single 0 (* touches no keys: any shard serves it *)
    | first :: rest -> (
        match Directory.shard_of_shape t.dir first with
        | None -> Cross
        | Some s ->
            if
              List.for_all
                (fun sh -> Directory.shard_of_shape t.dir sh = Some s)
                rest
            then Single s
            else Cross)

let classify t sm =
  match Hashtbl.find_opt t.memo sm.Analyzer.Absint.sm_fn with
  | Some p -> p
  | None ->
      let p = classify_now t sm in
      Hashtbl.add t.memo sm.sm_fn p;
      p

let shards_of_keys t keys =
  List.sort_uniq compare (List.map (Directory.shard_of_key t.dir) keys)

let anchor = function
  | [] -> 0
  | s :: rest -> List.fold_left min s rest

let target_of_keys t keys =
  if Directory.shards t.dir = 1 then 0
  else match shards_of_keys t keys with [] -> 0 | [ s ] -> s | ss -> anchor ss

type stats = { classified : int; single : int; cross : int }

let stats t =
  let single = ref 0 and cross = ref 0 in
  Hashtbl.iter
    (fun _ -> function Single _ -> incr single | Cross -> incr cross)
    t.memo;
  { classified = Hashtbl.length t.memo; single = !single; cross = !cross }

let pp_placement fmt = function
  | Single s -> Format.fprintf fmt "single-shard(%d)" s
  | Cross -> Format.fprintf fmt "cross-shard"
