(* Differential tester tests: the oracle must be silent on the pristine
   configuration (no false positives) and must find every seeded defect
   family in the paper configuration. *)

module Op = Bytecodes.Opcode
module D = Difftest.Difference

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let paper = Interpreter.Defects.paper
let pristine = Interpreter.Defects.pristine
let arches = Jit.Codegen.all_arches

let test ~defects ~compiler subject =
  Ijdt_core.Campaign.test_instruction ~defects ~arches ~compiler subject

let diffs ~defects ~compiler subject =
  (test ~defects ~compiler subject).Ijdt_core.Campaign.diffs

let families ds = List.sort_uniq compare (List.map (fun d -> d.D.family) ds)

(* --- pristine: zero false positives --- *)

let test_pristine_no_diffs_bytecodes () =
  (* every byte-code instruction, both stack-to-register compilers *)
  List.iter
    (fun compiler ->
      List.iter
        (fun op ->
          let r = test ~defects:pristine ~compiler (Concolic.Path.Bytecode op) in
          if r.differences <> 0 then
            Alcotest.failf "pristine %s: %s has %d differences: %s"
              (Jit.Cogits.short_name compiler)
              (Op.mnemonic op) r.differences
              (String.concat "; "
                 (List.map D.to_string r.diffs)))
        (List.filter
           (fun op -> op <> Op.Push_this_context)
           (Bytecodes.Encoding.all_defined_opcodes ())))
    [ Jit.Cogits.Stack_to_register_cogit; Jit.Cogits.Register_allocating_cogit ]

let test_pristine_no_diffs_natives () =
  List.iter
    (fun id ->
      let r =
        test ~defects:pristine ~compiler:Jit.Cogits.Native_method_compiler
          (Concolic.Path.Native id)
      in
      (* in the pristine configuration, implemented templates must agree;
         unimplemented ones (some object prims have no template even when
         fixed) are still reported as missing functionality *)
      List.iter
        (fun (d : D.t) ->
          if d.family <> D.Missing_functionality then
            Alcotest.failf "pristine native %s: %s"
              (Interpreter.Primitive_table.name id)
              (D.to_string d))
        r.diffs)
    Interpreter.Primitive_table.ids

let test_pristine_simple_only_optimisation () =
  (* the Simple compiler structurally lacks type prediction: its pristine
     differences are optimisation differences only *)
  List.iter
    (fun op ->
      let ds =
        diffs ~defects:pristine ~compiler:Jit.Cogits.Simple_stack_cogit
          (Concolic.Path.Bytecode op)
      in
      List.iter
        (fun (d : D.t) ->
          check_bool (Op.mnemonic op ^ " only optimisation") true
            (d.family = D.Optimisation_difference))
        ds)
    [
      Op.Arith_special Op.Sel_add;
      Op.Arith_special Op.Sel_lt;
      Op.Arith_special Op.Sel_bit_and;
    ]

(* --- paper configuration: each family is found --- *)

let test_missing_interpreter_check_found () =
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Native_method_compiler
      (Concolic.Path.Native 40)
  in
  check_bool "found" true (List.mem D.Missing_interpreter_type_check (families ds))

let test_missing_compiled_check_found () =
  List.iter
    (fun id ->
      let ds =
        diffs ~defects:paper ~compiler:Jit.Cogits.Native_method_compiler
          (Concolic.Path.Native id)
      in
      check_bool
        (Interpreter.Primitive_table.name id ^ " missing compiled check")
        true
        (List.mem D.Missing_compiled_type_check (families ds)))
    [ 41; 43; 51; 55 ]

let test_behavioural_found () =
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
      (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_bit_and))
  in
  check_bool "bc bitand behavioural" true
    (List.mem D.Behavioural_difference (families ds));
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Native_method_compiler
      (Concolic.Path.Native 16)
  in
  check_bool "template bitxor behavioural" true
    (List.mem D.Behavioural_difference (families ds))

let test_optimisation_found () =
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Simple_stack_cogit
      (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add))
  in
  check_bool "simple misses predictions" true
    (List.mem D.Optimisation_difference (families ds));
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
      (Concolic.Path.Bytecode (Op.Common_special Op.Sel_bit_xor))
  in
  check_bool "bitxor inlined only in compiler" true
    (List.mem D.Optimisation_difference (families ds))

let test_missing_functionality_found () =
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Native_method_compiler
      (Concolic.Path.Native 100)
  in
  check_bool "FFI missing" true (List.mem D.Missing_functionality (families ds))

let test_simulation_error_found () =
  let ds =
    diffs ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
      (Concolic.Path.Bytecode (Op.Push_receiver_variable_ext 5))
  in
  check_bool "simulation error" true (List.mem D.Simulation_error (families ds));
  (* and it disappears when the accessor table is complete *)
  let ds =
    diffs
      ~defects:{ paper with simulation_accessor_gaps = false }
      ~compiler:Jit.Cogits.Stack_to_register_cogit
      (Concolic.Path.Bytecode (Op.Push_receiver_variable_ext 5))
  in
  check_bool "clean without gaps" true
    (not (List.mem D.Simulation_error (families ds)))

(* --- curation --- *)

let test_bitwise_paths_curated () =
  (* the bitShift success path carries a bitwise range constraint the
     solver rejects: it must be curated out, like the paper's curated
     column *)
  let r =
    test ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
      (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_bit_shift))
  in
  check_bool "some paths curated" true (r.curated < r.paths)

let test_exit_equivalence_mapping () =
  (* sends must match trampolines with the same selector and arg count:
     a literal send compiles to exactly that trampoline *)
  let r =
    test ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
      (Concolic.Path.Bytecode (Op.Send { selector = 2; num_args = 1 }))
  in
  check_int "no differences on plain sends" 0 r.differences

let test_returns_match () =
  List.iter
    (fun op ->
      let r =
        test ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
          (Concolic.Path.Bytecode op)
      in
      check_int (Op.mnemonic op ^ " matches") 0 r.differences)
    [ Op.Return_top; Op.Return_receiver; Op.Return_true; Op.Return_nil ]

let test_branch_markers_match () =
  List.iter
    (fun op ->
      let r =
        test ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
          (Concolic.Path.Bytecode op)
      in
      check_int (Op.mnemonic op ^ " matches") 0 r.differences)
    [ Op.Jump 3; Op.Jump_false 2; Op.Jump_true 1; Op.Jump_ext (-5) ]

let test_heap_effect_validation () =
  (* storing byte-codes and at:put: validate heap effects *)
  List.iter
    (fun op ->
      let r =
        test ~defects:paper ~compiler:Jit.Cogits.Stack_to_register_cogit
          (Concolic.Path.Bytecode op)
      in
      check_int (Op.mnemonic op ^ " matches") 0 r.differences)
    [
      Op.Store_and_pop_receiver_variable 1;
      Op.Store_and_pop_temp 0;
      Op.Common_special Op.Sel_at_put;
    ]

let test_classification_is_complete () =
  (* every difference of a full campaign falls into a named (non
     "unclassified") cause *)
  let c = (Ijdt_core.Campaign.run_supervised ~defects:paper ()).sup_campaign in
  List.iter
    (fun (_, cause, _) ->
      check_bool ("classified: " ^ cause) false
        (String.length cause >= 12 && String.sub cause 0 12 = "unclassified"))
    (Ijdt_core.Campaign.causes c)

let suite =
  [
    Alcotest.test_case "pristine byte-codes: no false positives" `Slow
      test_pristine_no_diffs_bytecodes;
    Alcotest.test_case "pristine natives: no false positives" `Slow
      test_pristine_no_diffs_natives;
    Alcotest.test_case "pristine Simple: only optimisation" `Quick
      test_pristine_simple_only_optimisation;
    Alcotest.test_case "finds missing interpreter check" `Quick
      test_missing_interpreter_check_found;
    Alcotest.test_case "finds missing compiled checks" `Quick
      test_missing_compiled_check_found;
    Alcotest.test_case "finds behavioural differences" `Quick test_behavioural_found;
    Alcotest.test_case "finds optimisation differences" `Quick test_optimisation_found;
    Alcotest.test_case "finds missing functionality" `Quick
      test_missing_functionality_found;
    Alcotest.test_case "finds simulation errors" `Quick test_simulation_error_found;
    Alcotest.test_case "bitwise paths curated (§4.3)" `Quick test_bitwise_paths_curated;
    Alcotest.test_case "send/trampoline equivalence" `Quick test_exit_equivalence_mapping;
    Alcotest.test_case "returns match" `Quick test_returns_match;
    Alcotest.test_case "branch markers match" `Quick test_branch_markers_match;
    Alcotest.test_case "heap effects validated" `Quick test_heap_effect_validation;
    Alcotest.test_case "classification complete" `Slow test_classification_is_complete;
  ]
