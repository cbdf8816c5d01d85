(* External services (§3.5): a checkout handler charges a payment
   provider. A single Radical request can execute its function twice —
   speculation plus backup, or speculation plus deterministic
   re-execution after a lost followup — so Radical attaches Stripe-style
   idempotency keys and the provider charges at most once.

     dune exec examples/external_payments.exe *)

open Sim
open Fdsl.Ast
module Location = Net.Location
module Transport = Net.Transport
module Framework = Radical.Framework
module Extsvc = Radical.Extsvc

let checkout =
  {
    fn_name = "checkout";
    params = [ "user" ];
    body =
      Let
        ( "cart",
          Read (Concat [ Str "cart:"; Input "user" ]),
          Compute
            ( 40.0,
              Let
                ( "receipt",
                  External ("stripe", Var "cart"),
                  Seq
                    [
                      Write
                        (Concat [ Str "receipt:"; Input "user" ], Var "receipt");
                      Write (Concat [ Str "cart:"; Input "user" ], List_lit []);
                      Var "receipt";
                    ] ) ) );
  }

let () =
  let engine = Engine.create ~seed:9 () in
  Engine.run engine (fun () ->
      let net =
        Transport.create ~jitter_sigma:0.0 ~rng:(Rng.split (Engine.rng ())) ()
      in
      let fw =
        Framework.create ~net ~funcs:[ checkout ]
          ~data:
            [
              ("cart:alice", Dval.List [ Dval.Str "book"; Dval.Str "pen" ]);
              ("cart:bob", Dval.List [ Dval.Str "lamp" ]);
            ]
          ()
      in
      let charges = ref 0 in
      Framework.register_external fw ~name:"stripe" ~latency:8.0 (fun cart ->
          incr charges;
          Dval.Record [ ("charged_for", cart); ("ok", Dval.Bool true) ]);
      let ext = Framework.external_services fw in

      print_endline "1. Normal checkout from Ireland: speculation calls the";
      print_endline "   provider; the followup carries the writes home.";
      let o = Framework.invoke fw ~from:Location.ie "checkout" [ Dval.Str "alice" ] in
      Printf.printf "   checkout done in %.1f ms; stripe charged %d time(s)\n\n"
        o.latency
        (Extsvc.handler_runs ext "stripe");

      print_endline "2. Checkout whose followup the network eats: the write";
      print_endline "   intent expires, the function deterministically";
      print_endline "   re-executes near storage — and regenerates the same";
      print_endline "   idempotency keys, so the charge is not repeated.";
      let armed = ref true in
      ignore
        (Transport.add_fault net (fun ~src:_ ~dst:_ ~label ->
             if !armed && label = "followup" then begin
               armed := false;
               Transport.Drop
             end
             else Transport.Deliver)
          : int);
      let _ = Framework.invoke fw ~from:Location.de "checkout" [ Dval.Str "bob" ] in
      Engine.sleep 3000.0;
      let st = Radical.Server.stats (Framework.server fw) in
      Printf.printf
        "   re-executions: %d; stripe attempts: %d; actual charges: %d\n\n"
        st.reexecutions
        (Extsvc.requests ext "stripe")
        (Extsvc.handler_runs ext "stripe");
      assert (st.reexecutions = 1);
      assert (Extsvc.handler_runs ext "stripe" = 2) (* alice + bob, once each *);

      (match Store.Kv.peek (Framework.primary fw) "receipt:bob" with
      | Some { value; _ } ->
          Printf.printf "   bob's receipt reached primary storage: %s\n"
            (Dval.to_string value)
      | None -> print_endline "   receipt missing!");
      print_endline "\nAt-most-once external effects, exactly as §3.5 requires.";
      Framework.stop fw)
