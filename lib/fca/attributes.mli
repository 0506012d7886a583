(** Attribute mining from NLR-summarized traces (paper Table V).

    An attribute is either a single NLR entry or a consecutive pair of
    entries ("this reflects calling context"), optionally tagged with
    its observed frequency — raw, log10-bucketed, or absent. The six
    combinations are the knobs the ranking tables sweep. *)

type granularity =
  | Single  (** each entry of the trace NLR *)
  | Double  (** each pair of consecutive entries *)

type freq_mode =
  | Actual  (** attribute carries the observed frequency *)
  | Log10   (** attribute carries floor(log10 frequency) *)
  | No_freq (** presence/absence only *)

type spec = { granularity : granularity; freq_mode : freq_mode }

(** [name s] — the paper's row labels: ["sing.actual"], ["doub.noFreq"],
    ["sing.log10"], … *)
val name : spec -> string

(** [parse s] parses [name]'s output; anything else is
    [Error "Attributes.of_name: S"]. *)
val parse : string -> (spec, string) result

(** [of_name s] — {!parse} for constant names; raises
    [Invalid_argument] with {!parse}'s message. *)
val of_name : string -> spec

(** [all] — the six specs, in the paper's table order. *)
val all : spec list

(** [of_nlr spec symtab nlr] is the attribute set mined from one
    summarized trace. Loop elements contribute their token ("L0") with
    multiplicity equal to their iteration count. *)
val of_nlr :
  spec -> Difftrace_trace.Symtab.t -> Difftrace_nlr.Nlr.t -> string list
