type t = { table : (string, unit) Sim.Expiring.t; latency : float }

let create ?(access_latency = 3.0) () =
  { table = Sim.Expiring.create 64; latency = access_latency }

let register ?ttl t ~exec_id =
  Sim.Engine.sleep t.latency;
  let now = Sim.Engine.now () in
  Sim.Expiring.prune t.table ~now;
  if Sim.Expiring.mem t.table exec_id then false
  else begin
    Sim.Expiring.replace t.table exec_id ();
    Option.iter
      (fun ttl -> Sim.Expiring.expire t.table exec_id () ~at:(now +. ttl))
      ttl;
    true
  end

let seen t ~exec_id = Sim.Expiring.mem t.table exec_id

let count t = Sim.Expiring.length t.table
