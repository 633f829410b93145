(* End-to-end campaign regression tests: pin the reproduction of the
   paper's Table 2 shape and Table 3 counts. *)

module D = Difftest.Difference

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One shared campaign for all assertions in this module (it runs in
   under a second). *)
let campaign =
  lazy
    (Ijdt_core.Campaign.run_supervised ~defects:Interpreter.Defects.paper ())
      .sup_campaign

let row compiler =
  let c = Lazy.force campaign in
  List.find (fun cr -> cr.Ijdt_core.Campaign.compiler = compiler) c.results

let test_table2_instruction_counts () =
  check_int "112 native methods tested" 112
    (Ijdt_core.Campaign.tested_instructions (row Jit.Cogits.Native_method_compiler));
  List.iter
    (fun c ->
      check_int "191 byte-codes tested" 191
        (Ijdt_core.Campaign.tested_instructions (row c)))
    Jit.Cogits.bytecode_compilers

let test_table2_shape () =
  let natives = row Jit.Cogits.Native_method_compiler in
  let simple = row Jit.Cogits.Simple_stack_cogit in
  let s2r = row Jit.Cogits.Stack_to_register_cogit in
  let regalloc = row Jit.Cogits.Register_allocating_cogit in
  let d = Ijdt_core.Campaign.total_differences in
  (* the paper's ordering: natives dominate; Simple > StackToRegister =
     RegisterAllocating *)
  check_bool "natives dominate" true (d natives > 10 * d s2r);
  check_bool "Simple finds more than S2R" true (d simple > d s2r);
  check_int "S2R and RegAlloc agree" (d s2r) (d regalloc);
  (* curation removes some paths but keeps most *)
  let curated_ratio cr =
    float_of_int (Ijdt_core.Campaign.total_curated cr)
    /. float_of_int (Ijdt_core.Campaign.total_paths cr)
  in
  check_bool "most native paths curated in" true (curated_ratio natives > 0.7);
  check_bool "native paths outnumber per-instruction bytecode paths" true
    (float_of_int (Ijdt_core.Campaign.total_paths natives) /. 112.
    > float_of_int (Ijdt_core.Campaign.total_paths simple) /. 191.)

let test_table3_exact () =
  (* the seeded-defect reproduction of Table 3: 1 / 13 / 10 / 5 / 60 / 2 *)
  let by_family = Ijdt_core.Campaign.causes_by_family (Lazy.force campaign) in
  let count f = List.assoc f by_family in
  check_int "missing interpreter type check" 1 (count D.Missing_interpreter_type_check);
  check_int "missing compiled type check" 13 (count D.Missing_compiled_type_check);
  check_int "optimisation difference" 10 (count D.Optimisation_difference);
  check_int "behavioural difference" 5 (count D.Behavioural_difference);
  check_int "missing functionality" 60 (count D.Missing_functionality);
  check_int "simulation error" 2 (count D.Simulation_error);
  check_int "91 causes total" 91
    (List.length (Ijdt_core.Campaign.causes (Lazy.force campaign)))

let test_differences_positive_everywhere () =
  List.iter
    (fun cr ->
      check_bool
        (Jit.Cogits.name cr.Ijdt_core.Campaign.compiler ^ " finds differences")
        true
        (Ijdt_core.Campaign.total_differences cr > 0))
    (Lazy.force campaign).results

let test_tables_render () =
  (* rendering must not raise and must include the totals *)
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Ijdt_core.Tables.all ppf (Lazy.force campaign);
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check_bool "table 2 header" true
    (Astring_contains.contains s "Table 2");
  check_bool "table 3 header" true (Astring_contains.contains s "Table 3");
  check_bool "figures" true (Astring_contains.contains s "Figure 5")

let test_headline () =
  let c = Lazy.force campaign in
  let tests =
    List.fold_left
      (fun a cr -> a + Ijdt_core.Campaign.total_curated cr)
      0 c.results
  in
  check_bool "more than a thousand tests" true (tests > 1000)

let suite =
  [
    Alcotest.test_case "Table 2: instruction counts" `Slow
      test_table2_instruction_counts;
    Alcotest.test_case "Table 2: shape" `Slow test_table2_shape;
    Alcotest.test_case "Table 3: exact cause counts" `Slow test_table3_exact;
    Alcotest.test_case "all compilers find differences" `Slow
      test_differences_positive_everywhere;
    Alcotest.test_case "tables render" `Slow test_tables_render;
    Alcotest.test_case "headline test count" `Slow test_headline;
  ]
