(* Reporting-layer tests: statistics helpers and table rows. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_stats_of () =
  let s = Ijdt_core.Tables.stats_of [ 3.0; 1.0; 2.0 ] in
  check_int "n" 3 s.Ijdt_core.Tables.n;
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.Ijdt_core.Tables.mean;
  Alcotest.(check (float 1e-9)) "median" 2.0 s.Ijdt_core.Tables.median;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Ijdt_core.Tables.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 s.Ijdt_core.Tables.max;
  let empty = Ijdt_core.Tables.stats_of [] in
  check_int "empty n" 0 empty.Ijdt_core.Tables.n

let campaign =
  lazy
    (Ijdt_core.Campaign.run_supervised ~defects:Interpreter.Defects.paper
       ~arches:[ Jit.Codegen.X86 ]
       ~compilers:[ Jit.Cogits.Stack_to_register_cogit ]
       ())
      .sup_campaign

let test_table2_rows () =
  let rows = Ijdt_core.Tables.table2_rows (Lazy.force campaign) in
  check_int "compiler row + total" 2 (List.length rows);
  let row = List.hd rows and total = List.nth rows 1 in
  check_bool "total row labelled" true (total.Ijdt_core.Tables.compiler = "Total");
  check_int "total equals row" row.Ijdt_core.Tables.paths total.Ijdt_core.Tables.paths;
  check_bool "curated <= paths" true
    (row.Ijdt_core.Tables.curated <= row.Ijdt_core.Tables.paths);
  check_bool "differences <= curated" true
    (row.Ijdt_core.Tables.differences <= row.Ijdt_core.Tables.curated)

let test_table1_renders () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Ijdt_core.Tables.table1 ppf ();
  Format.pp_print_flush ppf ();
  check_bool "mentions the overflow row" true
    (Astring_contains.contains (Buffer.contents buf) "isInSmallIntRange")

let suite =
  [
    Alcotest.test_case "stats_of" `Quick test_stats_of;
    Alcotest.test_case "table2 rows" `Quick test_table2_rows;
    Alcotest.test_case "table1 renders" `Quick test_table1_renders;
  ]
