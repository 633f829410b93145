(* Work pool: deal jobs from an atomic front index, write results into
   per-job slots, merge in input order.  Workers never block on each
   other; the only synchronisation points are the fetch-and-add on the
   deal index and the final [Domain.join] (which publishes the slot
   writes to the caller under the OCaml 5 memory model). *)

let default_jobs () = Domain.recommended_domain_count ()

(* Every job runs to completion and keeps its own outcome: one raising
   job costs exactly its slot, never a sibling's result. *)
let run_one f x =
  match f x with
  | v -> Ok v
  | exception exn -> Error (exn, Printexc.get_raw_backtrace ())

let run_results ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then Array.map (run_one f) xs
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <- Some (run_one f xs.(i));
        work ()
      end
    in
    let helpers = Array.init (min jobs n - 1) (fun _ -> Domain.spawn work) in
    work ();
    Array.iter Domain.join helpers;
    Array.map (function Some r -> r | None -> assert false) slots
  end

let mapi ?jobs f xs =
  let items = Array.of_list xs in
  let results =
    run_results ?jobs (fun i -> f i items.(i)) (Array.init (Array.length items) Fun.id)
  in
  (* Merge in input order; the first Error met is therefore the
     lowest-index failure, whatever the scheduling was. *)
  Array.to_list
    (Array.map
       (function
         | Ok v -> v
         | Error (exn, backtrace) -> Printexc.raise_with_backtrace exn backtrace)
       results)

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs
