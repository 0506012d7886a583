(** The frontend conformance contract, executable.

    [check fe input] runs every property a registered frontend must
    satisfy against one input and returns the violations (empty list =
    conformant on this input):

    - {b totality}: [fe.ingest] itself never raises;
    - {b determinism}: two ingests of the same bytes agree (same digest,
      or the same typed error);
    - {b runner parity}: the digest is identical under the sequential
      runner and under [alt_runner] (callers pass the parallel engine's
      runner; the default exercises an adversarial completion order);
    - {b round-trip}: re-ingesting [fe.render] of a successful ingest
      reproduces the digest — a fixed point;
    - {b salvage}: when [scratch] is given and ingest succeeded, the
      set survives [Archive.save] / [Archive.load ~salvage:true]
      byte-identically with nothing salvaged away. The archive is
      written to a fresh per-input subdirectory of [scratch].

    [difftrace frontend check FILE -F NAME] and the fuzz harness
    ([scripts/frontend_fuzz.sh]) drive exactly this function, so CI,
    qcheck and shell fuzzing all enforce one definition of
    "conformant". *)

type violation = {
  vl_property : string;  (** "totality", "determinism", ... *)
  vl_detail : string;
}

val violation_to_string : violation -> string

(** A runner that evaluates indices in an adversarial (reversed)
    order — the cheapest schedule shake-up that catches accidental
    order dependence without needing the engine. *)
val reversed_runner : Difftrace_util.Runner.t

val check :
  ?alt_runner:Difftrace_util.Runner.t ->
  ?scratch:string ->
  Frontend.t ->
  string ->
  violation list
