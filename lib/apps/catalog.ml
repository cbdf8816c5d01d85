type info = {
  fn_name : string;
  app : string;
  description : string;
  writes : bool;
  dependent : bool;
  exec_ms : float;
  workload_pct : float;
}

let mk app fn_name description writes dependent exec_ms workload_pct =
  { fn_name; app; description; writes; dependent; exec_ms; workload_pct }

let table1 =
  [
    mk "social" "social-login" "Performs pbkdf2-based password check" false false 213.0 9.5;
    mk "social" "social-post" "Make a post and add to followers' timelines" true true 106.0 0.5;
    mk "social" "social-follow" "Follow another user" true false 16.0 0.5;
    mk "social" "social-timeline" "View the posts from followed users" false false 120.0 80.0;
    mk "social" "social-profile" "View a user's profile and their posts" false false 124.0 9.5;
    mk "hotel" "hotel-search" "Find all hotels near a user's location" false true 161.0 60.0;
    mk "hotel" "hotel-recommend" "Get recommendations based on prior reviews" false false 207.0 30.0;
    mk "hotel" "hotel-book" "Book a room in a hotel" true false 272.0 0.5;
    mk "hotel" "hotel-review" "Make a review for a hotel" true false 13.0 0.5;
    mk "hotel" "hotel-login" "Performs pbkdf2-based password check" false false 213.0 0.5;
    mk "hotel" "hotel-attractions" "View all nearby attractions to a hotel" false false 111.0 8.5;
    mk "forum" "forum-homepage" "View most recent/popular posts" false false 209.0 80.0;
    mk "forum" "forum-post" "Make a comment or post" true false 18.0 1.0;
    mk "forum" "forum-interact" "Upvote or favorite comments/posts" true false 16.0 9.0;
    mk "forum" "forum-view" "View a post and all comments" false false 123.0 8.0;
    mk "forum" "forum-login" "Performs pbkdf2-based password check" false false 212.0 2.0;
  ]

let all_functions =
  Social.functions @ Hotel.functions @ Forum.functions @ Imageboard.functions
  @ Projectmgmt.functions

let all_apps =
  [
    ("social", Social.functions);
    ("hotel", Hotel.functions);
    ("forum", Forum.functions);
    ("imageboard", Imageboard.functions);
    ("projectmgmt", Projectmgmt.functions);
  ]

let find name = List.find_opt (fun i -> String.equal i.fn_name name) table1

(* Developer-supplied residuals (§7) for catalog functions the analyzer
   rejects, with sample input vectors for the registration-time
   differential check. *)
let manual_overrides =
  [
    ( Imageboard.flag_fn,
      Imageboard.flag_rw,
      [
        [ Dval.Str "b0"; Dval.Str "i0" ];
        [ Dval.Str "b1"; Dval.Str "i7" ];
        [ Dval.Str "b2"; Dval.Str "i0" ];
      ] );
  ]

let manual_rw_of name =
  List.find_map
    (fun (src, rw, _) ->
      if String.equal src.Fdsl.Ast.fn_name name then Some rw else None)
    manual_overrides

let check_manuals ?(read = fun _ -> Dval.Unit) () =
  List.map
    (fun (src, rw, samples) ->
      let result =
        match Analyzer.Derive.manual ~source:src ~rw_func:rw with
        | exception Invalid_argument m -> Error m
        | d -> Analyzer.Derive.check_manual d ~read ~samples
      in
      (src.Fdsl.Ast.fn_name, result))
    manual_overrides
