(* End-to-end soundness properties across the solver → materialiser
   boundary: whenever the solver answers Sat, materialising the model
   must produce concrete objects that satisfy every predicate of the
   conjunction under the *real* object memory.

   This is the invariant the whole pipeline rests on: the explorer
   re-executes with materialised inputs and assumes they follow the seed
   path; the differential tester assumes re-materialisation reproduces
   the exploration's inputs. *)

module Sym = Symbolic.Sym_expr
open Vm_objects

let check_bool = Alcotest.(check bool)

(* Build a tiny universe of oop variables, generate random conjunctions
   of supported predicates over them, and check Sat models concretely. *)

type pred =
  | P_small of int
  | P_float of int
  | P_pointers of int
  | P_bytes of int
  | P_indexable of int
  | P_class of int * int
  | P_value_gt of int * int (* var, bound *)
  | P_value_le of int * int
  | P_size_ge of int * int
  | P_neg of pred

let rec pred_to_expr vars (p : pred) : Sym.t =
  match p with
  | P_small i -> Sym.Is_small_int (vars i)
  | P_float i -> Sym.Is_float_object (vars i)
  | P_pointers i -> Sym.Is_pointers (vars i)
  | P_bytes i -> Sym.Is_bytes (vars i)
  | P_indexable i -> Sym.Is_indexable (vars i)
  | P_class (i, c) -> Sym.Has_class (vars i, c)
  | P_value_gt (i, b) ->
      Sym.Cmp (Sym.Cgt, Sym.Integer_value_of (vars i), Sym.Int_const b)
  | P_value_le (i, b) ->
      Sym.Cmp (Sym.Cle, Sym.Integer_value_of (vars i), Sym.Int_const b)
  | P_size_ge (i, n) ->
      Sym.Cmp (Sym.Cge, Sym.Indexable_size_of (vars i), Sym.Int_const n)
  | P_neg p -> Sym.negate (pred_to_expr vars p)

(* Concrete truth of a predicate over a materialised valuation. *)
let rec holds om value_of (p : pred) : bool =
  match p with
  | P_small i -> Value.is_small_int (value_of i)
  | P_float i -> Object_memory.is_float_object om (value_of i)
  | P_pointers i -> Object_memory.is_pointers_object om (value_of i)
  | P_bytes i -> Object_memory.is_bytes_object om (value_of i)
  | P_indexable i -> Object_memory.is_indexable om (value_of i)
  | P_class (i, c) -> Object_memory.class_index_of om (value_of i) = c
  | P_value_gt (i, b) ->
      Value.is_small_int (value_of i) && Value.small_int_value (value_of i) > b
  | P_value_le (i, b) ->
      Value.is_small_int (value_of i) && Value.small_int_value (value_of i) <= b
  | P_size_ge (i, n) ->
      (* immediates have indexable size 0, matching the solver's
         convention for [Indexable_size_of] *)
      let v = value_of i in
      let size =
        if Value.is_small_int v then 0
        else
          (try Object_memory.indexable_size om v
           with Heap.Invalid_access _ -> 0)
      in
      size >= n
  | P_neg p -> not (holds om value_of p)

let num_vars = 3

let pred_gen : pred QCheck.Gen.t =
  let open QCheck.Gen in
  let var = int_range 0 (num_vars - 1) in
  let base =
    oneof
      [
        map (fun i -> P_small i) var;
        map (fun i -> P_float i) var;
        map (fun i -> P_pointers i) var;
        map (fun i -> P_bytes i) var;
        map (fun i -> P_indexable i) var;
        map2
          (fun i c -> P_class (i, c))
          var
          (oneofl
             [
               Class_table.small_integer_id;
               Class_table.boxed_float_id;
               Class_table.array_id;
               Class_table.byte_array_id;
               Class_table.point_id;
               Class_table.true_id;
             ]);
        map2 (fun i b -> P_value_gt (i, b)) var (int_range (-1000) 1000);
        map2 (fun i b -> P_value_le (i, b)) var (int_range (-1000) 1000);
        map2 (fun i n -> P_size_ge (i, n)) var (int_range 0 20);
      ]
  in
  oneof [ base; map (fun p -> P_neg p) base ]

let arbitrary_conjunction =
  QCheck.make
    ~print:(fun preds -> string_of_int (List.length preds) ^ " predicates")
    QCheck.Gen.(list_size (int_range 1 6) pred_gen)

(* Note: [P_value_gt]/[P_value_le] only hold on small integers
   concretely; the symbolic encoding adds the implicit Is_small_int so
   the comparison is well-sorted. *)
let with_sort_guards vars preds =
  List.concat_map
    (fun p ->
      match p with
      | P_value_gt (i, _) | P_value_le (i, _) ->
          [ Sym.Is_small_int (vars i); pred_to_expr vars p ]
      | _ -> [ pred_to_expr vars p ])
    preds

let qcheck_sat_models_are_sound =
  QCheck.Test.make ~name:"qcheck: Sat models materialise soundly" ~count:500
    arbitrary_conjunction
    (fun preds ->
      let gen = Sym.Gen.create () in
      let var_list =
        Array.init num_vars (fun i ->
            Sym.Gen.fresh gen ~name:(Printf.sprintf "v%d" i) ~sort:Sym.Oop)
      in
      let vars i = Sym.Var var_list.(i) in
      let conds = with_sort_guards vars preds in
      match Solver.Solve.solve conds with
      | Solver.Solve.Unsat | Solver.Solve.Unknown _ -> true
      | Solver.Solve.Sat model ->
          (* materialise through the pipeline's materialiser *)
          let size_var = Sym.Gen.fresh gen ~name:"sz" ~sort:Sym.Int in
          let input =
            Concolic.Materialize.build ~model
              ~method_in:(fun om ->
                Bytecodes.Method_builder.build
                  (Object_memory.heap om)
                  ~temps:2 [ Bytecodes.Opcode.Nop ])
              ~recv_var:var_list.(0)
              ~temp_vars:[| var_list.(1); var_list.(2) |]
              ~entry_var:(fun _ -> size_var (* unused: stack is empty *))
              ~stack_size_term:(Sym.Var size_var) ()
          in
          let value_of i =
            match
              List.assoc_opt (Sym.Var var_list.(i))
                (List.map (fun (k, v) -> (k, v)) input.bindings)
            with
            | Some v -> v
            | None -> Value.of_small_int 0
          in
          List.for_all (holds input.om value_of) preds)

(* Determinism of the solver itself. *)
let qcheck_solver_deterministic =
  QCheck.Test.make ~name:"qcheck: solver verdicts are deterministic" ~count:200
    arbitrary_conjunction
    (fun preds ->
      let run () =
        let gen = Sym.Gen.create () in
        let var_list =
          Array.init num_vars (fun i ->
              Sym.Gen.fresh gen ~name:(Printf.sprintf "v%d" i) ~sort:Sym.Oop)
        in
        let vars i = Sym.Var var_list.(i) in
        match Solver.Solve.solve (with_sort_guards vars preds) with
        | Solver.Solve.Sat _ -> `Sat
        | Solver.Solve.Unsat -> `Unsat
        | Solver.Solve.Unknown _ -> `Unknown
      in
      run () = run ())

(* The Unsat oracle: every Unsat the solver answers must have no model.
   Conjunctions of unit-coefficient comparisons over 2–4 integer atoms
   (untagged small ints and the size of a byte object, each behind its
   sort guard), every atom boxed to 0..7 by explicit conjuncts, so
   enumerating the box decides each conjunction exactly.  Both the
   decision procedure and the syntactic refutation of [prepare] are
   checked against the enumeration. *)

(* (form, comparison, atom, atom, constant) *)
type rel = int * int * int * int * int

let cmps = Sym.[| Ceq; Cne; Clt; Cle; Cgt; Cge |]

let rel_to_expr atoms ((form, c, i, j, k) : rel) : Sym.t =
  let n = Array.length atoms in
  let a = atoms.(i mod n) and b = atoms.(j mod n) and c = cmps.(c) in
  match form with
  | 0 -> Sym.Cmp (c, Sym.Add (a, Sym.Int_const k), b)
  | 1 -> Sym.Cmp (c, a, Sym.Int_const k)
  | 2 -> Sym.Cmp (c, Sym.Add (a, b), Sym.Int_const k)
  | 3 -> Sym.Cmp (c, Sym.Int_const k, a)
  | _ -> Sym.Not (Sym.Cmp (c, Sym.Sub (a, b), Sym.Int_const k))

(* atoms: intValueOf of [n_ints] small ints, plus the size of one byte
   object when [with_size] *)
let box_conjunction (n_ints, with_size, rels) =
  let gen = Sym.Gen.create () in
  let oop name = Sym.Var (Sym.Gen.fresh gen ~name ~sort:Sym.Oop) in
  let ints = List.init n_ints (fun i -> oop (Printf.sprintf "v%d" i)) in
  let bytes = oop "b" in
  let atoms =
    Array.of_list
      ((if with_size then [ Sym.Indexable_size_of bytes ] else [])
      @ List.map (fun v -> Sym.Integer_value_of v) ints)
  in
  let guards =
    (if with_size then [ Sym.Is_bytes bytes ] else [])
    @ List.map (fun v -> Sym.Is_small_int v) ints
  in
  let box =
    List.concat_map
      (fun a -> [ Sym.Cmp (Sym.Cge, a, Sym.Int_const 0); Sym.Cmp (Sym.Cle, a, Sym.Int_const 7) ])
      (Array.to_list atoms)
  in
  (atoms, guards @ box @ List.map (rel_to_expr atoms) rels)

(* Does any assignment of the box satisfy every comparison? *)
let box_has_model atoms conds =
  let env = Solver.Eval.create_env () in
  let rec holds (e : Sym.t) =
    match e with
    | Cmp (c, a, b) ->
        Solver.Eval.cmp_holds c (Solver.Eval.eval_int env a)
          (Solver.Eval.eval_int env b)
    | Not e -> not (holds e)
    | _ -> true (* sort guards: every box value is well-sorted *)
  in
  let rec assign i =
    if i = Array.length atoms then List.for_all holds conds
    else
      List.exists
        (fun v ->
          Hashtbl.replace env.ints atoms.(i) v;
          assign (i + 1))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  assign 0

let arbitrary_box_conjunction =
  let open QCheck.Gen in
  let rel =
    map
      (fun (form, c, i, j, k) -> ((form, c, i, j, k) : rel))
      (tup5 (int_range 0 4) (int_range 0 5) (int_range 0 3) (int_range 0 3)
         (int_range (-8) 8))
  in
  let gen =
    int_range 2 4 >>= fun n ->
    bool >>= fun with_size ->
    let n_ints = if with_size then n - 1 else n in
    map (fun rels -> (n_ints, with_size, rels)) (list_size (int_range 1 6) rel)
  in
  QCheck.make gen
    ~print:(fun case ->
      String.concat " & " (List.map Sym.to_string (snd (box_conjunction case))))
    ~shrink:(fun (n, w, rels) ->
      QCheck.Iter.map (fun rels -> (n, w, rels)) (QCheck.Shrink.list rels))

let unsat_is_sound case =
  let atoms, conds = box_conjunction case in
  let refuted =
    Solver.Solve.prepared_unsat (Solver.Solve.prepare conds)
    ||
    match Solver.Solve.solve_uncached conds with
    | Solver.Solve.Unsat -> true
    | Sat _ | Unknown _ -> false
  in
  (not refuted) || not (box_has_model atoms conds)

let qcheck_unsat_has_no_model =
  QCheck.Test.make ~name:"qcheck: every Unsat has no model in the box"
    ~count:300 arbitrary_box_conjunction unsat_is_sound

(* Shrunk counterexamples the oracle reported against deliberately
   unsound variants of the difference-bound step (a strict bound one too
   tight, a non-strict bound one too tight, an interval edge one too
   tight, a negated atom's sign dropped).  Each is satisfiable in the
   box, so a sound solver must not refute it. *)
let unsat_regressions : (int * bool * rel list) list =
  [
    (* v0 > 2 ∧ ¬(v0 - v1 >= -3) *)
    (2, false, [ (1, 4, 0, 0, 2); (4, 5, 0, 1, -3) ]);
    (* v0 - 7 = v3 *)
    (4, false, [ (0, 0, 0, 3, -7) ]);
    (* v1 < 1 *)
    (3, false, [ (1, 2, 1, 1, 1) ]);
    (* 1 <= v0, next to a byte object's size *)
    (1, true, [ (3, 3, 1, 1, 1) ]);
  ]

let test_unsat_regressions () =
  List.iter
    (fun case ->
      let atoms, conds = box_conjunction case in
      check_bool "satisfiable in the box" true (box_has_model atoms conds);
      check_bool "not refuted" true (unsat_is_sound case))
    unsat_regressions;
  (* and the FFI bounds pair, v0+2 >= size ∧ v0+4 <= size, is refuted *)
  let ffi = (1, true, [ (0, 5, 1, 0, 2); (0, 3, 1, 0, 4) ]) in
  let atoms, conds = box_conjunction ffi in
  check_bool "FFI pair has no model" false (box_has_model atoms conds);
  check_bool "FFI pair refuted" true
    (Solver.Solve.solve_uncached conds = Solver.Solve.Unsat)

(* Exploration as a whole never crashes on any single instruction and
   always yields at least one path for supported ones. *)
let test_every_bytecode_explores () =
  List.iter
    (fun op ->
      let r = Concolic.Explorer.explore (Concolic.Path.Bytecode op) in
      if not r.unsupported then
        check_bool (Bytecodes.Opcode.mnemonic op ^ " has paths") true
          (List.length r.paths >= 1))
    (Bytecodes.Encoding.all_defined_opcodes ())

let test_every_native_explores () =
  List.iter
    (fun id ->
      let r = Concolic.Explorer.explore (Concolic.Path.Native id) in
      check_bool
        (Interpreter.Primitive_table.name id ^ " has paths")
        true
        (List.length r.paths >= 1))
    Interpreter.Primitive_table.ids

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_sat_models_are_sound;
    QCheck_alcotest.to_alcotest qcheck_solver_deterministic;
    QCheck_alcotest.to_alcotest qcheck_unsat_has_no_model;
    Alcotest.test_case "Unsat oracle regressions" `Quick test_unsat_regressions;
    Alcotest.test_case "every byte-code explores" `Slow test_every_bytecode_explores;
    Alcotest.test_case "every native method explores" `Slow test_every_native_explores;
  ]
