module Key = struct
  type 'a t = {
    uid : int;
    name : string;
    inj : 'a -> exn;
    proj : exn -> 'a option;
  }

  (* Atomic so keys may be created from any domain (e.g. at library init). *)
  let uids = Atomic.make 0

  let create (type a) name : a t =
    let module M = struct
      exception E of a
    end in
    {
      uid = Atomic.fetch_and_add uids 1;
      name;
      inj = (fun v -> M.E v);
      proj = (function M.E v -> Some v | _ -> None);
    }

  let name k = k.name
end

type t = {
  budget : Budget.t;
  stats : Stats.t;
  faults : Fault.t;
  prng : Prng.t;
  slots : (int, exn) Hashtbl.t;
}

let default_seed = 0x7d1ff

let create ?budget ?stats ?faults ?(seed = default_seed) () =
  {
    budget = (match budget with Some b -> b | None -> Budget.unlimited ());
    stats = (match stats with Some s -> s | None -> Stats.create ());
    faults = (match faults with Some f -> f | None -> Fault.create ());
    prng = Prng.create seed;
    slots = Hashtbl.create 8;
  }

let limited ?deadline_ms ?max_comparisons ?max_nodes ?max_depth () =
  create ~budget:(Budget.make ?deadline_ms ?max_comparisons ?max_nodes ?max_depth ()) ()

let budget t = t.budget
let stats t = t.stats
let faults t = t.faults
let prng t = t.prng
let fault t name = Fault.point t.faults name

let respawn t =
  {
    budget = Budget.rearm t.budget;
    stats = Stats.create ();
    faults = t.faults;
    prng = t.prng;
    slots = t.slots;
  }

let find (type a) t (k : a Key.t) : a option =
  match Hashtbl.find_opt t.slots k.Key.uid with
  | None -> None
  | Some e -> k.Key.proj e

let set (type a) t (k : a Key.t) (v : a) =
  Hashtbl.replace t.slots k.Key.uid (k.Key.inj v)

let remove t k = Hashtbl.remove t.slots k.Key.uid
