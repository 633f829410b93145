(* The benchmark driver.

   One process runs one measured pass of one workload and writes its
   figures to a JSON file for perfbench/run.py, which launches a fresh
   process per pass: [Difftest.Runner]'s static and cross-ISA memos have
   no public reset, so a cold pass needs a cold process.

     driver.exe run   --workload W --seed S --n N --out FILE [options]
     driver.exe trace --workload W --seed S --n N --out FILE [options]

   [run] is the timed pass: it goes through [Campaign.run_supervised],
   the entry point of `vmtest campaign` and `vmtest validate`, with no
   tracing.  [trace] drives the same units through each layer's public
   function, in the order [Campaign.test_instruction] calls them, and
   records one span per call; then it probes the layers the campaign
   does not expose (compilation, the solver, the store, the wire codec)
   outside the mirrored pass.

   Options: --store DIR activates an [Exec.Store]; --t0-ns NS is the
   CLOCK_MONOTONIC time at which the harness launched this process (the
   start of [setup_s]); --workers K runs the units in K worker
   processes; --jobs J in J domains (default 1); --rows FILE writes one line of per-unit results; --spans
   PREFIX writes the trace as PREFIX.jsonl and PREFIX.chrome.json;
   --replay DIR names the store whose entries the store probe replays;
   --tamper corrupts the expected cause list and --crash injects one
   unit crash, both to show that the known-answer checks bite. *)

module C = Ijdt_core.Campaign
module R = Difftest.Runner
module D = Difftest.Difference

(* --- configuration --- *)

type workload = Curated_cold | Extracted_cold | Extracted_warm

let workload_of_string = function
  | "curated-cold" -> Curated_cold
  | "extracted-cold" -> Extracted_cold
  | "extracted-warm" -> Extracted_warm
  | w -> failwith ("unknown workload " ^ w)

type cfg = {
  mode : string;
  workload : workload;
  seed : int;
  n : int;
  store : string option;
  t0 : float;
  workers : int option;
  jobs : int;
  tamper : bool;
  crash : bool;
  out : string;
  rows : string option;
  spans : string option;
  replay : string option;
}

let parse_args t_start =
  let a = Sys.argv in
  let opts = Hashtbl.create 8 in
  let rec go i =
    if i < Array.length a then
      match a.(i) with
      | ("--tamper" | "--crash") as f ->
          Hashtbl.replace opts f "";
          go (i + 1)
      | k when String.starts_with ~prefix:"--" k && i + 1 < Array.length a ->
          Hashtbl.replace opts k a.(i + 1);
          go (i + 2)
      | k -> failwith ("unexpected argument " ^ k)
  in
  if Array.length a < 2 then failwith "usage: driver.exe run|trace ...";
  go 2;
  let opt k = Hashtbl.find_opt opts k in
  let req k =
    match opt k with Some v -> v | None -> failwith ("missing " ^ k)
  in
  {
    mode = a.(1);
    workload = workload_of_string (req "--workload");
    seed = int_of_string (req "--seed");
    n = int_of_string (req "--n");
    store = opt "--store";
    t0 =
      (match opt "--t0-ns" with
      | Some ns -> Int64.to_float (Int64.of_string ns) /. 1e9
      | None -> t_start);
    workers = Option.map int_of_string (opt "--workers");
    jobs = Option.fold ~none:1 ~some:int_of_string (opt "--jobs");
    tamper = Hashtbl.mem opts "--tamper";
    crash = Hashtbl.mem opts "--crash";
    out = req "--out";
    rows = opt "--rows";
    spans = opt "--spans";
    replay = opt "--replay";
  }

let extracted cfg = cfg.workload <> Curated_cold

(* curated-cold is the paper's campaign (`vmtest campaign`); the
   extracted workloads are `vmtest validate --pristine` over the three
   byte-code compilers, so the FFI solver tail stays in curated-cold *)
let defects cfg =
  if extracted cfg then Interpreter.Defects.pristine else Interpreter.Defects.paper

let compilers cfg =
  if extracted cfg then Jit.Cogits.bytecode_compilers else Jit.Cogits.all

let arches = Jit.Codegen.all_arches
let max_iterations = 96

let corpus cfg =
  if extracted cfg then C.Corpus_extracted { n = cfg.n; seed = cfg.seed }
  else C.Corpus_curated

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let units_of cfg =
  let corpus = corpus cfg in
  List.concat_map
    (fun c -> List.map (fun s -> (c, s)) (C.corpus_subjects_for ~jobs:1 ~corpus c))
    (compilers cfg)

(* --- known answers --- *)

let wrong_family = function
  | D.Missing_interpreter_type_check | D.Missing_compiled_type_check
  | D.Behavioural_difference | D.Simulation_error ->
      true
  | D.Optimisation_difference | D.Missing_functionality | D.Injected_fault ->
      false

(* paper Table 3: root causes per defect family *)
let paper_families =
  [
    (D.Missing_interpreter_type_check, 1);
    (D.Missing_compiled_type_check, 13);
    (D.Optimisation_difference, 10);
    (D.Behavioural_difference, 5);
    (D.Missing_functionality, 60);
    (D.Simulation_error, 2);
  ]

let checks cfg (c : C.t) =
  let fails = ref [] in
  let expect what ok = if not ok then fails := what :: !fails in
  let by_family = C.causes_by_family c in
  let count f = Option.value ~default:0 (List.assoc_opt f by_family) in
  (match cfg.workload with
  | Curated_cold ->
      (* paper Table 2 totals *)
      let sum f = List.fold_left (fun a r -> a + f r) 0 c.results in
      List.iter
        (fun (what, got, want) ->
          expect (Printf.sprintf "%s: %d, expected %d" what got want) (got = want))
        [
          ("paths", sum C.total_paths, 1986);
          ("curated", sum C.total_curated, 1981);
          ("differences", sum C.total_differences, 302);
          ("root causes", List.length (C.causes c), 91);
        ];
      let expected =
        if cfg.tamper then
          List.map
            (fun (f, k) -> if f = D.Simulation_error then (f, k + 1) else (f, k))
            paper_families
        else paper_families
      in
      List.iter
        (fun (f, want) ->
          expect
            (Printf.sprintf "%s causes: %d, expected %d" (D.family_name f)
               (count f) want)
            (count f = want))
        expected
  | Extracted_cold | Extracted_warm ->
      List.iter
        (fun (f, k) ->
          expect
            (Printf.sprintf "%d %s cause(s) on the pristine configuration" k
               (D.family_name f))
            (not (wrong_family f && k > 0)))
        by_family;
      let wrong_static =
        List.filter
          (fun (f : Verify.Finding.t) ->
            match Difftest.Classify.family_of_static f.family with
            | Some fam -> wrong_family fam
            | None -> false)
          (C.all_static_findings c)
      in
      expect
        (Printf.sprintf "%d static wrongness finding(s) on the pristine \
                         configuration"
           (List.length wrong_static))
        (wrong_static = []));
  List.rev !fails

(* The count-only report, rendered by [Tables]: byte-identical across
   cold, warm and worker runs of the same units (no times, no query or
   cache counts, which vary with cache warmth). *)
let report (c : C.t) =
  let b = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer b in
  Ijdt_core.Tables.table2 ppf c;
  Ijdt_core.Tables.table3 ppf c;
  Ijdt_core.Tables.causes ppf c;
  List.iter
    (fun (cr : C.compiler_result) ->
      List.iter
        (fun (arch, (v : C.validation_counts)) ->
          Format.fprintf ppf "validation %s %s %d %d %d %d %d %d@."
            (Jit.Cogits.short_name cr.compiler)
            (Jit.Codegen.arch_name arch)
            v.proved v.refuted v.missing v.spurious v.unknown v.skipped)
        (C.validation_by_arch cr))
    c.results;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let unit_row key (r : C.instruction_result) =
  let v =
    List.fold_left
      (fun a (_, x) -> C.sum_validations a x)
      C.no_validations r.validations
  in
  let causes =
    List.sort compare
      (List.map (fun (d : D.t) -> D.family_name d.family ^ ":" ^ d.cause) r.diffs)
  in
  Printf.sprintf "%s|paths=%d|curated=%d|differences=%d|causes=%s|validation=%d/%d/%d/%d/%d/%d"
    key r.paths r.curated r.differences (String.concat ";" causes) v.proved
    v.refuted v.missing v.spurious v.unknown v.skipped

let write_lines file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let results_by_key (c : C.t) =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (cr : C.compiler_result) ->
      List.iter
        (fun (r : C.instruction_result) ->
          Hashtbl.replace tbl (C.unit_key (cr.compiler, r.subject)) r)
        cr.instructions)
    c.results;
  tbl

let total_paths (c : C.t) =
  List.fold_left (fun a r -> a + C.total_paths r) 0 c.results

let confirmed_refutations (c : C.t) =
  let t = C.validation_totals c in
  t.refuted - t.missing

(* --- JSON output, printed by hand --- *)

type json = F of float | I of int | S of string | L of string list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | F f -> Printf.sprintf "%.17g" f
  | I i -> string_of_int i
  | S s -> json_string s
  | L l -> "[" ^ String.concat "," (List.map json_string l) ^ "]"

let write_json file fields =
  let oc = open_out file in
  output_string oc "{";
  output_string oc
    (String.concat ","
       (List.map (fun (k, v) -> json_string k ^ ":" ^ json_value v) fields));
  output_string oc "}\n";
  close_out oc

let host_fields () =
  [
    ("ocaml_version", S Sys.ocaml_version);
    ("recommended_domain_count", I (Domain.recommended_domain_count ()));
  ]

let store_fields () =
  let s = Exec.Store.counters () in
  [
    ("store_hits", I s.hits);
    ("store_misses", I s.misses);
    ("store_writes", I s.writes);
  ]

(* --- the timed pass --- *)

let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

let run_mode cfg =
  Option.iter Exec.Store.activate cfg.store;
  if extracted cfg then ignore (C.extracted_corpus ~jobs:1 ~seed:cfg.seed ~n:cfg.n ());
  let units = units_of cfg in
  let t1 = Exec.Clock.now () in
  let cpu1 = cpu_now () in
  let s =
    C.run_supervised ~jobs:cfg.jobs ?workers:cfg.workers ~max_iterations
      ~validate:(extracted cfg) ~defects:(defects cfg) ~arches
      ~compilers:(compilers cfg) ~corpus:(corpus cfg) ~units
      ?chaos:(if cfg.crash then Some (cfg.seed, 1) else None)
      ()
  in
  let wall = Exec.Clock.now () -. t1 in
  let cpu = cpu_now () -. cpu1 in
  let c = s.sup_campaign in
  let fails = checks cfg c in
  let by_key = results_by_key c in
  Option.iter
    (fun file ->
      write_lines file
        (List.map
           (fun (u : C.unit_report) ->
             match Hashtbl.find_opt by_key u.ur_key with
             | Some r when u.ur_verdict = "ok" -> unit_row u.ur_key r
             | _ -> u.ur_key ^ "|verdict=" ^ u.ur_verdict)
           s.sup_units))
    cfg.rows;
  let pool =
    match s.sup_process with
    | None -> []
    | Some p ->
        [
          ("procpool_deaths", I p.p_deaths);
          ("procpool_redeals", I p.p_redeals);
          ("procpool_garbage", I p.p_garbage);
        ]
  in
  let alloc = alloc_words () in
  write_json cfg.out
    ([
       ("setup_s", F (t1 -. cfg.t0));
       ("wall_s", F wall);
       ("cpu_s", F cpu);
       ("paths", I (total_paths c));
       ("units", I (List.length s.sup_units));
       ("ok", I s.sup_totals.c_ok);
       ("alloc_words", F alloc);
       ("report_digest", S (Digest.to_hex (Digest.string (report c))));
       ("confirmed_refutations", I (confirmed_refutations c));
       ("checks", L fails);
     ]
    @ store_fields () @ pool @ host_fields ())

(* --- the traced pass --- *)

type span = {
  id : int;
  name : string;
  parent : int;
  unit_id : int;
  start : float;
  stop : float;
  words : float;
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0

(* Spans are kept in memory and written at exit; [unit_id] is inherited
   from the enclosing span. *)
let with_span ?unit_id name f =
  let id = !next_id in
  incr next_id;
  let parent, inherited =
    match !open_spans with (p, u) :: _ -> (p, u) | [] -> (-1, -1)
  in
  let unit_id = Option.value unit_id ~default:inherited in
  open_spans := (id, unit_id) :: !open_spans;
  let w0 = alloc_words () in
  let start = Exec.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Exec.Clock.now () in
      open_spans := List.tl !open_spans;
      spans :=
        { id; name; parent; unit_id; start; stop; words = alloc_words () -. w0 }
        :: !spans)
    f

(* per-layer counts, accumulated by the traced pass and the probes *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let bump ?(by = 1.) k =
  Hashtbl.replace counters k (by +. Option.value ~default:0. (Hashtbl.find_opt counters k))

let counter k = Option.value ~default:0. (Hashtbl.find_opt counters k)

(* [Explorer.explore] through its memo and the store, as the campaign
   calls it; the counts come from explorations that actually ran. *)
let traced_explore ~defects subject =
  with_span "explore" (fun () ->
      let m0 = Concolic.Explorer.cache_stats () in
      let s0 = Exec.Store.counters () in
      let ex = Concolic.Explorer.explore ~max_iterations ~defects subject in
      let m1 = Concolic.Explorer.cache_stats () in
      let s1 = Exec.Store.counters () in
      let served_by_store = s1.hits > s0.hits && s1.misses = s0.misses in
      if m1.misses > m0.misses && not served_by_store then begin
        bump "concolic.explored";
        bump "concolic.iterations" ~by:(float ex.iterations);
        bump "concolic.paths" ~by:(float (List.length ex.paths));
        bump "concolic.unsat_negations" ~by:(float ex.unsat_negations);
        bump "concolic.skipped_negations" ~by:(float ex.skipped_negations)
      end;
      ex)

let add_validation (a : C.validation_counts) = function
  | R.V_proved -> { a with proved = a.proved + 1 }
  | R.V_refuted { witness; _ } ->
      let a = { a with refuted = a.refuted + 1 } in
      if witness.Verify.Translation_validator.missing then
        { a with missing = a.missing + 1 }
      else a
  | R.V_spurious _ -> { a with spurious = a.spurious + 1 }
  | R.V_unknown _ -> { a with unknown = a.unknown + 1 }
  | R.V_skipped _ -> { a with skipped = a.skipped + 1 }

(* One unit, layer by layer, in [Campaign.test_instruction]'s order:
   explore; per path x ISA replay, static verdict, validation; then the
   unit's static verdict per ISA and the cross-ISA differ. *)
let traced_unit cfg index (compiler, subject) : C.instruction_result =
  let defects = defects cfg and validate = extracted cfg in
  with_span ~unit_id:index "unit" @@ fun () ->
  let ex = traced_explore ~defects subject in
  let empty =
    {
      C.subject;
      paths = 0;
      curated = 0;
      differences = 0;
      unsupported = true;
      explore_time = 0.;
      test_time = 0.;
      diffs = [];
      static_findings = [];
      agreements = { both_clean = 0; both_flagged = 0; static_only = 0; dynamic_only = 0 };
      validations = [];
    }
  in
  if ex.unsupported then empty
  else
    let results =
      List.map
        (fun path ->
          List.map
            (fun arch ->
              let outcome =
                with_span "replay" (fun () -> R.run_path ~defects ~compiler ~arch path)
              in
              bump
                (match outcome with
                | R.Pass -> "difftest.pass"
                | R.Expected_failure -> "difftest.expected_failure"
                | R.Curated_out _ -> "difftest.curated_out"
                | R.Diff _ -> "difftest.diff");
              ignore
                (with_span "static" (fun () ->
                     R.static_findings ~defects ~compiler ~arch subject));
              let validation =
                if not validate then None
                else
                  with_span "validate" (fun () ->
                      let s0 = Exec.Store.counters () in
                      let v, spent =
                        Verify.Translation_validator.with_query_count (fun () ->
                            R.validate_path ~defects ~compiler ~arch path)
                      in
                      let s1 = Exec.Store.counters () in
                      if s1.misses > s0.misses then bump "verify.store_misses";
                      bump "verify.validate_queries" ~by:(float spent);
                      Some (v, spent))
              in
              (arch, outcome, validation))
            arches)
        ex.paths
    in
    let curated =
      List.length
        (List.filter
           (List.for_all (fun (_, o, _) ->
                match o with R.Curated_out _ -> false | _ -> true))
           results)
    in
    let path_diffs =
      List.filter_map
        (List.find_map (fun (_, o, _) -> match o with R.Diff d -> Some d | _ -> None))
        results
    in
    let static_findings =
      with_span "static" (fun () ->
          List.concat_map
            (fun arch -> R.static_findings ~defects ~compiler ~arch subject)
            arches)
      @ with_span "cross_isa" (fun () ->
            R.cross_isa_findings ~defects ~compiler ~arches subject)
      |> List.sort_uniq compare
    in
    bump "verify.findings" ~by:(float (List.length static_findings));
    let validations =
      if not validate then []
      else
        List.map
          (fun arch ->
            ( arch,
              List.fold_left
                (List.fold_left (fun acc (a, _, v) ->
                     match v with
                     | Some (v, spent) when a = arch ->
                         add_validation { acc with C.queries = acc.C.queries + spent } v
                     | _ -> acc))
                C.no_validations results ))
          arches
    in
    {
      empty with
      unsupported = false;
      paths = List.length ex.paths;
      curated;
      differences = List.length path_diffs;
      diffs = Difftest.Classify.dedupe_witnesses path_diffs;
      static_findings;
      validations;
    }

(* --- probes: layers the campaign does not expose, measured after the
   mirrored pass so they stay out of its wall time --- *)

let probe_jit cfg units =
  let defects = defects cfg in
  List.iteri
    (fun index (compiler, subject) ->
      with_span ~unit_id:index "jit" (fun () ->
          let ir () =
            match subject with
            | Concolic.Path.Native id -> Jit.Cogits.compile_native ~defects id
            | Concolic.Path.Bytecode op ->
                Jit.Cogits.compile_bytecode compiler ~defects
                  ~literals:Verify.default_literals
                  ~stack_setup:(Verify.default_stack_setup op) op
            | Concolic.Path.Bytecode_seq ops ->
                Jit.Cogits.compile_sequence compiler ~defects
                  ~literals:Verify.default_literals ~stack_setup:[] ops
          in
          let lower arch =
            match subject with
            | Concolic.Path.Native id -> Jit.Cogits.compile_native_to_machine ~defects ~arch id
            | Concolic.Path.Bytecode op ->
                Jit.Cogits.compile_bytecode_to_machine compiler ~defects
                  ~literals:Verify.default_literals
                  ~stack_setup:(Verify.default_stack_setup op) ~arch op
            | Concolic.Path.Bytecode_seq ops ->
                Jit.Cogits.compile_sequence_to_machine compiler ~defects
                  ~literals:Verify.default_literals ~stack_setup:[] ~arch ops
          in
          match ir () with
          | exception Jit.Cogits.Not_compiled _ -> bump "jit.not_compiled"
          | ir ->
              bump "jit.ir_instrs" ~by:(float (List.length ir));
              List.iter
                (fun arch ->
                  match lower arch with
                  | exception Jit.Cogits.Not_compiled _ -> bump "jit.not_compiled"
                  | p -> bump "jit.machine_instrs" ~by:(float (Array.length p)))
                arches))
    units

(* Every explored path condition and each of its negated prefixes (the
   queries generational search poses), distinct by canonical
   fingerprint, re-posed to the uncached decision procedure. *)
let probe_solver ~defects units =
  let seen = Hashtbl.create 4096 and subjects = Hashtbl.create 1024 in
  List.iteri
    (fun index (_, subject) ->
      let name = Concolic.Path.subject_name subject in
      if not (Hashtbl.mem subjects name) then begin
        Hashtbl.replace subjects name ();
        let ex = Concolic.Explorer.explore ~max_iterations ~defects subject in
        with_span ~unit_id:index "solver" (fun () ->
            List.iter
              (fun (path : Concolic.Path.t) ->
                (* the path condition itself, then for each clause not
                   yet negated: the clauses before it and its negation *)
                let _, negated =
                  List.fold_left
                    (fun (before, acc) (c : Symbolic.Path_condition.clause) ->
                      let acc =
                        if c.already_negated then acc
                        else List.rev (Symbolic.Sym_expr.negate c.cond :: before) :: acc
                      in
                      (c.cond :: before, acc))
                    ([], []) path.path_condition
                in
                let queries =
                  Symbolic.Path_condition.conditions path.path_condition :: negated
                in
                List.iter
                  (fun q ->
                    let fp = Solver.Solve.fingerprint (Solver.Solve.prepare q) in
                    if not (Hashtbl.mem seen fp) then begin
                      Hashtbl.replace seen fp ();
                      let t0 = Exec.Clock.now () in
                      let v = Solver.Solve.solve_uncached q in
                      let dt = Exec.Clock.now () -. t0 in
                      match v with
                      | Solver.Solve.Sat _ ->
                          bump "solver.sat";
                          bump "solver.decided_s" ~by:dt
                      | Solver.Solve.Unsat ->
                          bump "solver.unsat";
                          bump "solver.decided_s" ~by:dt
                      | Solver.Solve.Unknown _ ->
                          bump "solver.unknown";
                          bump "solver.unknown_s" ~by:dt
                    end)
                  queries)
              ex.paths)
      end)
    units

(* The store's entries as this run left them, read back from disk and
   replayed through [Store.add] and [Store.find] into a scratch store. *)
let probe_store dir =
  let parse_hex_field line field =
    let tag = "\"" ^ field ^ "\":\"" in
    let tl = String.length tag and n = String.length line in
    let rec find i =
      if i + tl > n then failwith "store header"
      else if String.sub line i tl = tag then i + tl
      else find (i + 1)
    in
    let start = find 0 in
    let stop = String.index_from line start '"' in
    let hex = String.sub line start (stop - start) in
    String.init (String.length hex / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))
  in
  let entries = ref [] and bytes = ref 0 in
  Array.iter
    (fun shard ->
      let sd = Filename.concat dir shard in
      if Sys.is_directory sd then
        Array.iter
          (fun f ->
            let file = Filename.concat sd f in
            let ic = open_in_bin file in
            let len = in_channel_length ic in
            let line = input_line ic in
            let payload = really_input_string ic (len - String.length line - 1) in
            close_in ic;
            bytes := !bytes + len;
            (* a file whose header does not parse is left out of the replay *)
            match (parse_hex_field line "ns", parse_hex_field line "key") with
            | ns, key -> entries := (ns, key, payload) :: !entries
            | exception (Failure _ | Not_found | Invalid_argument _) -> ())
          (Sys.readdir sd))
    (Sys.readdir dir);
  let entries = List.rev !entries in
  bump "store.entries" ~by:(float (List.length entries));
  bump "store.bytes" ~by:(float !bytes);
  let scratch = Exec.Store.open_store ~dir:(dir ^ ".replay") in
  with_span "store.write" (fun () ->
      List.iter (fun (ns, key, p) -> Exec.Store.add scratch ~ns ~key p) entries);
  with_span "store.read" (fun () ->
      List.iter
        (fun (ns, key, p) ->
          if Exec.Store.find scratch ~ns ~key <> Some p then
            failwith "store replay: entry not read back")
        entries)

let probe_wire results =
  let frames =
    List.mapi
      (fun index (r : C.instruction_result) ->
        Exec.Unit_wire.Result
          {
            index;
            attempt = 1;
            attempts = 1;
            verdict = Exec.Unit_wire.W_ok (Marshal.to_string r []);
          })
      results
  in
  let encoded = with_span "wire.encode" (fun () -> List.map Exec.Unit_wire.encode frames) in
  with_span "wire.decode" (fun () ->
      List.iter
        (fun line ->
          let line = String.sub line 0 (String.length line - 1) in
          if Exec.Unit_wire.decode_line line = None then failwith "wire: frame not decoded")
        encoded);
  bump "wire.frames" ~by:(float (List.length encoded));
  bump "wire.bytes"
    ~by:(float (List.fold_left (fun a l -> a + String.length l) 0 encoded))

(* --- trace output --- *)

let us t0 t = Printf.sprintf "%.3f" ((t -. t0) *. 1e6)

let write_spans prefix t0 spans =
  let jl = open_out (prefix ^ ".jsonl") in
  List.iter
    (fun s ->
      Printf.fprintf jl
        "{\"id\":%d,\"name\":%s,\"parent\":%d,\"unit\":%d,\"start_us\":%s,\"end_us\":%s,\"alloc_words\":%.0f}\n"
        s.id (json_string s.name) s.parent s.unit_id (us t0 s.start) (us t0 s.stop)
        s.words)
    spans;
  close_out jl;
  let ch = open_out (prefix ^ ".chrome.json") in
  output_string ch "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf ch
        "%s\n{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%d,\"parent\":%d,\"unit\":%d}}"
        (if i = 0 then "" else ",")
        (json_string s.name) (us t0 s.start)
        (Printf.sprintf "%.3f" ((s.stop -. s.start) *. 1e6))
        s.id s.parent s.unit_id)
    spans;
  output_string ch "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out ch

(* Busy and self time and self allocation per span name, after checking
   that every child lies inside its parent. *)
let layer_times spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_time = Hashtbl.create 4096 and child_words = Hashtbl.create 4096 in
  let bad = ref 0 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let p = Hashtbl.find by_id s.parent in
        if s.start < p.start || s.stop > p.stop then incr bad;
        let add tbl v =
          Hashtbl.replace tbl p.id (v +. Option.value ~default:0. (Hashtbl.find_opt tbl p.id))
        in
        add child_time (s.stop -. s.start);
        add child_words s.words
      end)
    spans;
  let layers = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let busy = s.stop -. s.start in
      let self = busy -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let words = s.words -. Option.value ~default:0. (Hashtbl.find_opt child_words s.id) in
      if self < 0. then incr bad;
      let b, sf, w =
        Option.value ~default:(0., 0., 0.) (Hashtbl.find_opt layers s.name)
      in
      Hashtbl.replace layers s.name (b +. busy, sf +. self, w +. words))
    spans;
  (layers, !bad)

(* The highest percentile with at least ten samples beyond it. *)
let tail_percentile sorted =
  let n = Array.length sorted in
  let rec pick = function
    | [] -> None
    | p :: rest ->
        let i = int_of_float (Float.ceil (p /. 100. *. float n)) - 1 in
        if i >= 0 && n - 1 - i >= 10 then Some (p, sorted.(i)) else pick rest
  in
  pick [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let trace_mode cfg =
  let gc0 = Gc.quick_stat () in
  Option.iter Exec.Store.activate cfg.store;
  let defects = defects cfg in
  let corpus =
    if extracted cfg then
      Some
        (with_span "corpus" (fun () ->
             C.extracted_corpus ~jobs:1 ~seed:cfg.seed ~n:cfg.n ()))
    else None
  in
  let units = units_of cfg in
  let q0 = Solver.Solve.queries_posed () and sm0 = Solver.Solve.cache_stats () in
  let t1 = Exec.Clock.now () in
  let results =
    List.mapi
      (fun index u ->
        match traced_unit cfg index u with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
      units
  in
  let wall = Exec.Clock.now () -. t1 in
  let store_counts = Exec.Store.counters () in
  let queries = Solver.Solve.queries_posed () - q0 in
  let sm1 = Solver.Solve.cache_stats () in
  let oks = List.filter_map Result.to_option results in
  let campaign =
    {
      C.defects;
      arches;
      results =
        List.map
          (fun compiler ->
            {
              C.compiler;
              instructions =
                List.filter_map
                  (fun ((c, _), r) ->
                    match r with Ok r when c = compiler -> Some r | _ -> None)
                  (List.combine units results);
            })
          (compilers cfg);
    }
  in
  let rep = with_span "report" (fun () -> report campaign) in
  let fails = checks cfg campaign in
  Option.iter
    (fun file ->
      write_lines file
        (List.map2
           (fun u r ->
             let key = C.unit_key u in
             match r with
             | Ok r -> unit_row key r
             | Error _ -> key ^ "|verdict=crashed")
           units results))
    cfg.rows;
  (* probes *)
  probe_jit cfg units;
  probe_solver ~defects units;
  Option.iter probe_store cfg.replay;
  probe_wire oks;
  let gc1 = Gc.quick_stat () in
  let spans = List.rev !spans in
  let layers, bad = layer_times spans in
  let fails =
    if bad = 0 then fails
    else fails @ [ Printf.sprintf "%d span(s) outside their parent" bad ]
  in
  Option.iter (fun p -> write_spans p t1 spans) cfg.spans;
  let busy l = match Hashtbl.find_opt layers l with Some (b, _, _) -> b | None -> 0. in
  let self l = match Hashtbl.find_opt layers l with Some (_, s, _) -> s | None -> 0. in
  let mwords l = match Hashtbl.find_opt layers l with Some (_, _, w) -> w /. 1e6 | None -> 0. in
  let unit_ms =
    List.filter_map (fun s -> if s.name = "unit" then Some ((s.stop -. s.start) *. 1e3) else None) spans
    |> Array.of_list
  in
  Array.sort compare unit_ms;
  let nu = Array.length unit_ms in
  let tail_pct, tail_ms = Option.value ~default:(0., 0.) (tail_percentile unit_ms) in
  let v =
    List.fold_left
      (fun a (r : C.instruction_result) ->
        List.fold_left (fun a (_, x) -> C.sum_validations a x) a r.validations)
      C.no_validations oks
  in
  let stats = Option.map (fun (c : Templates.Corpus.t) -> c.c_stats) corpus in
  let stat f = match stats with Some s -> f s | None -> 0 in
  let memo_total = sm1.hits - sm0.hits + (sm1.misses - sm0.misses) in
  let metrics =
    [
      ("templates.build_s", busy "corpus");
      ("templates.candidates", float (stat (fun s -> s.s_generated)));
      ("templates.accepted", float (stat (fun s -> s.s_accepted)));
      ( "templates.accept_ratio",
        if stat (fun s -> s.s_generated) = 0 then 0.
        else float (stat (fun s -> s.s_accepted)) /. float (stat (fun s -> s.s_generated)) );
      ("templates.alloc_mwords", mwords "corpus");
      ("concolic.explore_s", busy "explore");
      ("concolic.explored", counter "concolic.explored");
      ("concolic.iterations", counter "concolic.iterations");
      ("concolic.paths", counter "concolic.paths");
      ("concolic.unsat_negations", counter "concolic.unsat_negations");
      ("concolic.skipped_negations", counter "concolic.skipped_negations");
      ("concolic.alloc_mwords", mwords "explore");
      ("solver.queries", float queries);
      ( "solver.memo_hit_rate",
        if memo_total = 0 then 0. else float (sm1.hits - sm0.hits) /. float memo_total );
      ("solver.sat", counter "solver.sat");
      ("solver.unsat", counter "solver.unsat");
      ("solver.unknown", counter "solver.unknown");
      ("solver.decided_s", counter "solver.decided_s");
      ("solver.unknown_s", counter "solver.unknown_s");
      ("solver.alloc_mwords", mwords "solver");
      ("jit.compile_s", busy "jit");
      ("jit.ir_instrs", counter "jit.ir_instrs");
      ("jit.machine_instrs", counter "jit.machine_instrs");
      ("jit.not_compiled", counter "jit.not_compiled");
      ("verify.static_s", busy "static");
      ("verify.cross_isa_s", busy "cross_isa");
      ("verify.findings", counter "verify.findings");
      ("verify.validate_s", busy "validate");
      ("verify.validate_queries", counter "verify.validate_queries");
      ("verify.store_misses", counter "verify.store_misses");
      ("verify.proved", float v.proved);
      ("verify.refuted", float v.refuted);
      ("verify.confirmed_refutations", float (v.refuted - v.missing));
      ("verify.spurious", float v.spurious);
      ("verify.unknown", float v.unknown);
      ("verify.alloc_mwords", mwords "validate" +. mwords "static" +. mwords "cross_isa");
      ("difftest.replay_s", busy "replay");
      ("difftest.pass", counter "difftest.pass");
      ("difftest.expected_failure", counter "difftest.expected_failure");
      ("difftest.curated_out", counter "difftest.curated_out");
      ("difftest.diff", counter "difftest.diff");
      ("difftest.alloc_mwords", mwords "replay");
      ("store.hits", float store_counts.hits);
      ("store.misses", float store_counts.misses);
      ("store.writes", float store_counts.writes);
      ("store.entries", counter "store.entries");
      ("store.bytes", counter "store.bytes");
      ("store.write_s", busy "store.write");
      ("store.read_s", busy "store.read");
      ("wire.frames", counter "wire.frames");
      ("wire.bytes", counter "wire.bytes");
      ("wire.encode_s", busy "wire.encode");
      ("wire.decode_s", busy "wire.decode");
      ("core.units", float (List.length units));
      ("core.crashed", float (List.length units - List.length oks));
      ("core.unit_p50_ms", if nu = 0 then 0. else unit_ms.(nu / 2));
      ("core.unit_tail_ms", tail_ms);
      ("core.unit_tail_pct", tail_pct);
      ("core.unit_max_ms", if nu = 0 then 0. else unit_ms.(nu - 1));
      ("core.unit_self_s", self "unit");
      ("core.report_s", busy "report");
      ("gc.minor_collections", float (gc1.minor_collections - gc0.minor_collections));
      ("gc.major_collections", float (gc1.major_collections - gc0.major_collections));
      ("gc.top_heap_mb", float gc1.top_heap_words *. float (Sys.word_size / 8) /. 1e6);
      ("trace.wall_s", wall);
    ]
  in
  write_json cfg.out
    ((("checks", L fails) :: ("report_digest", S (Digest.to_hex (Digest.string rep)))
     :: List.map (fun (k, x) -> (k, F x)) metrics)
    @ host_fields ())

let () =
  let t_start = Exec.Clock.now () in
  (* run_supervised ~workers re-execs this binary as a campaign worker *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "worker" then begin
    C.worker_main ();
    exit 0
  end;
  let cfg = parse_args t_start in
  match cfg.mode with
  | "run" -> run_mode cfg
  | "trace" -> trace_mode cfg
  | m -> failwith ("unknown mode " ^ m)
