(** The decision procedure over the semantic constraint language (§3.3).

    Specialised to the constraint shapes the shadow machine emits, in the
    DPLL(T) spirit: bounded expansion of the few disjunctions that arise
    (negated small-int range checks), a type/class assignment pass over
    oop-sorted terms, interval propagation over the integer atoms, a
    difference-bound check that refutes contradictions between pairs of
    atoms (a negative cycle over unit-coefficient comparisons), and a
    witness search (biased candidates, bounded random sampling, linear
    repair).

    Mirrors the paper's solver limits (§4.3): conjunctions containing
    bitwise operations or constants beyond 56-bit precision answer
    [Unknown], which the explorer and the differential tester treat as
    curated-out.  The machine-level tag/shift/mask operators emitted by
    the JIT lowering are first rewritten to exact arithmetic
    counterparts (see {!normalize}), so conditions arising from
    translation validation of compiled code stay inside the fragment. *)

type verdict =
  | Sat of Model.t  (** concrete witnesses for every atom *)
  | Unsat
  | Unknown of string  (** outside the supported fragment *)

val normalize : Symbolic.Sym_expr.t -> Symbolic.Sym_expr.t
(** Rewrite the bit-level operators with exact arithmetic counterparts
    (valid for all two's-complement integers; [asr] and [land] against a
    low mask are floor division / floor modulus):
    [a lsl k = a * 2^k], [a asr k = a / 2^k] (floor),
    [a land (2^k - 1) = a mod 2^k], [(2a) lor 1 = 2a + 1]. *)

(** {2 Canonical conjunctions}

    A [prepared] value is a path condition in canonical form: conjuncts
    bit-normalized, [Not] pushed through integer comparisons,
    trivially-true conjuncts dropped, duplicates collapsed, the rest
    sorted — so semantically equal conjunctions built in any order share
    one {!fingerprint}, which is exactly the key the memo and the
    persistent store use.  It also tracks sound syntactic refutations
    (complement pairs, false constant comparisons, empty constant-bound
    meets); {!prepared_unsat} lets the explorer prune a child without
    any solver call. *)

type prepared

val empty_prepared : prepared

val extend : prepared -> Symbolic.Sym_expr.t -> prepared
(** Add one conjunct.  O(size of the conjunction); building a child
    from its prefix costs one insertion, not a re-canonicalisation. *)

val prepare : Symbolic.Sym_expr.t list -> prepared
val fingerprint : prepared -> string

val prepared_unsat : prepared -> bool
(** Syntactically refuted — sound: [true] implies the conjunction is
    unsatisfiable, never the reverse. *)

val normalize_conjunction :
  Symbolic.Sym_expr.t list -> Symbolic.Sym_expr.t list
(** The canonical conjunct list itself (idempotent and
    solve-preserving; both qcheck-checked in [test_solver]). *)

val solve : ?seed:int -> Symbolic.Sym_expr.t list -> verdict
(** Conjunction satisfiability.  Deterministic for a given [seed].
    Memoized: the verdict is cached under the canonical conjunction's
    fingerprint (plus seed) in a table shared read-mostly across
    domains, so repeated queries — the same subject explored for
    several compilers, curation, validator equivalence checks — run the
    decision procedure once.  When a {!Exec.Store} is active the
    verdict also persists across processes.  Caching never changes a
    verdict (see {!solve_uncached} and the qcheck property in
    [test_exec]). *)

val solve_prepared : ?seed:int -> prepared -> verdict
(** {!solve} for an already-canonical conjunction (skips
    re-preparation; same counters, same caches, same verdicts). *)

val solve_uncached : ?seed:int -> Symbolic.Sym_expr.t list -> verdict
(** {!solve} bypassing the memo table and the store: always runs the
    decision procedure (after the same canonicalisation).  The
    determinism oracle for the caches. *)

val cache_stats : unit -> Exec.Memo.stats
(** Hit/miss counters of the solver memo since the last
    {!reset_cache}.  [hits + misses] = number of {!solve} calls. *)

val queries_posed : unit -> int
(** Number of {!solve} calls since the last {!reset_cache}, counted by
    an atomic independent of the memo's own accounting — the oracle for
    the [hits + misses = queries] consistency check in the bench
    harness and CI smoke. *)

type unknown_counts = {
  bitwise_gate : int;  (** bitwise operation in the conjunction (§4.3) *)
  precision_gate : int;  (** constant beyond 56-bit precision (§4.3) *)
  unsupported_shape : int;
      (** a condition shape the solver cannot take apart, or too many
          disjunctive branches *)
  search_exhausted : int;
      (** neither refuted nor witnessed within the search budget *)
}

val unknown_counts : unit -> unknown_counts
(** Unknown verdicts by reason since the last {!reset_cache}, counted
    once per decision-procedure run behind a memo miss (store hits and
    {!solve_uncached} do not count).  Deterministic at any [-j]. *)

val reset_cache : unit -> unit
(** Drop all cached verdicts and zero the counters (bench phases call
    this so each configuration is measured cold). *)
