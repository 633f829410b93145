(* The public facade of the interpreter-guided differential testing
   library.

   Typical usage:

   {[
     (* explore one instruction's interpreter paths *)
     let exploration = Vm_testing.explore (`Bytecode add) in

     (* differential-test it against one compiler *)
     let report =
       Vm_testing.test_instruction ~compiler:`Stack_to_register (`Bytecode add)
     in

     (* or run the paper's full evaluation *)
     let campaign = Vm_testing.campaign () in
     Vm_testing.print_tables campaign
   ]} *)

type subject =
  [ `Bytecode of Bytecodes.Opcode.t | `Native of int (* primitive id *) ]

type compiler =
  [ `Native_methods | `Simple | `Stack_to_register | `Register_allocating ]

type arch = [ `X86 | `Arm32 | `Rv32 ]

let to_path_subject : subject -> Concolic.Path.subject = function
  | `Bytecode op -> Concolic.Path.Bytecode op
  | `Native id -> Concolic.Path.Native id

let to_cogit : compiler -> Jit.Cogits.compiler = function
  | `Native_methods -> Jit.Cogits.Native_method_compiler
  | `Simple -> Jit.Cogits.Simple_stack_cogit
  | `Stack_to_register -> Jit.Cogits.Stack_to_register_cogit
  | `Register_allocating -> Jit.Cogits.Register_allocating_cogit

let to_arch : arch -> Jit.Codegen.arch = function
  | `X86 -> Jit.Codegen.X86
  | `Arm32 -> Jit.Codegen.Arm32
  | `Rv32 -> Jit.Codegen.Rv32

(* --- exploration --- *)

let explore ?max_iterations ?defects (s : subject) =
  Concolic.Explorer.explore ?max_iterations ?defects (to_path_subject s)

(* --- differential testing --- *)

let test_instruction ?max_iterations ?(defects = Interpreter.Defects.paper)
    ?(arches = [ `X86; `Arm32; `Rv32 ]) ~(compiler : compiler) (s : subject) =
  Campaign.test_instruction ?max_iterations ~defects
    ~arches:(List.map to_arch arches)
    ~compiler:(to_cogit compiler) (to_path_subject s)

let run_path ?(defects = Interpreter.Defects.paper) ~(compiler : compiler)
    ~(arch : arch) (path : Concolic.Path.t) =
  Difftest.Runner.run_path ~defects ~compiler:(to_cogit compiler)
    ~arch:(to_arch arch) path

(* --- campaigns --- *)

let campaign ?max_iterations ?defects ?(arches = [ `X86; `Arm32; `Rv32 ])
    ?compilers () =
  (Campaign.run_supervised ?max_iterations ?defects
     ~arches:(List.map to_arch arches)
     ?compilers:(Option.map (List.map to_cogit) compilers)
     ())
    .sup_campaign

let print_tables ?(ppf = Format.std_formatter) c = Tables.all ppf c

(* --- introspection helpers for examples and tooling --- *)

let all_bytecode_subjects () : subject list =
  List.map (fun op -> `Bytecode op) (Bytecodes.Encoding.all_defined_opcodes ())

let all_native_subjects () : subject list =
  List.map (fun id -> `Native id) Interpreter.Primitive_table.ids

let subject_name s = Concolic.Path.subject_name (to_path_subject s)
