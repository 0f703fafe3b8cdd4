(** The backend registry: every {!Protocol.S} instance in the tree,
    buildable uniformly behind {!Protocol.Any}.

    Each entry renames [k] processes with source names in [[0, s)]
    (protocols that don't consume [s] or the participant set ignore
    them), so the differential law suite, the model checker, the fault
    campaigns and the shootout bench enumerate
    backends with zero per-backend glue — a backend registered here is
    tested the day it lands. *)

type spec = {
  name : string;  (** CLI / registry key *)
  summary : string;
  recoverable : bool;
      (** whether [reset_footprint] is available (all current entries). *)
  read_write_only : bool;
      (** [true] for the paper's protocols (atomic read/write registers
          only); [false] for the test&set-based baselines ([tas],
          [level]). *)
  fixed_participants : bool;
      (** [true] when [build] bakes the participant array into the
          instance ([filter], [pipeline]): only those [k] source names
          may call [get_name].  [false] means any pid in [[0, s)] is
          legal — required for serving arbitrary source names (the name
          server, Zipf churn). *)
  build :
    Shared_mem.Layout.t -> k:int -> s:int -> participants:int array -> Protocol.Any.t;
      (** [participants] must hold [k] distinct pids in [[0, s)]. *)
}

val default_pids : k:int -> s:int -> int array
(** [k] distinct, evenly-spread legal source names.
    @raise Invalid_argument if [s < k]. *)

val all : unit -> spec list
val names : unit -> string list
val find : string -> spec option
