(* Work-stealing grid scheduler on raw OCaml 5 domains (no external
   dependencies).

   Experiment grids are embarrassingly parallel — independent
   (benchmark × defense-configuration) cells — but cell runtimes vary
   by two orders of magnitude (a W32 microbenchmark vs. a multicore
   PARSEC cell), so static partitioning leaves domains idle.  Tasks are
   dealt round-robin into per-worker deques; a worker pops from the
   front of its own deque and, when empty, steals from the *back* of
   the longest other deque, so stealing grabs the work its owner would
   reach last.

   Every simulation in this codebase is deterministic (seeded
   [Random.State], no wall-clock reads), and tasks share no mutable
   state except explicitly mutex-guarded caches, so parallel execution
   is observably identical to serial: [map] returns results indexed by
   task, regardless of which domain ran what. *)

let default_jobs () = Domain.recommended_domain_count ()

(* The simulator allocates heavily (boxed [Int64] addresses every
   cycle), and OCaml 5 minor collections are stop-the-world across
   *all* domains — with the default 256k-word minor heap, multi-domain
   runs spend most of their time in collection barriers (measured 3×
   slower than serial at [-j 2]).  Growing the per-domain minor heap
   ~64× makes the barriers rare enough to not matter. *)
let grid_minor_heap_words = 16 * 1024 * 1024

let with_grid_gc f =
  let saved = (Gc.get ()).Gc.minor_heap_size in
  if saved >= grid_minor_heap_words then f ()
  else begin
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = grid_minor_heap_words };
    Fun.protect
      ~finally:(fun () ->
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved })
      f
  end

type 'a cell = Pending | Done of 'a | Raised of exn * Printexc.raw_backtrace

(* Run every task, using [jobs] domains (including the calling one);
   returns the results in task order.  The first task exception (by
   task index) is re-raised after all workers drain.  [jobs <= 1] runs
   serially in the calling domain. *)
let map ?(jobs = default_jobs ()) (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.map (fun f -> f ()) tasks
  else begin
    let queues = Array.init jobs (fun _ -> ref []) in
    let locks = Array.init jobs (fun _ -> Mutex.create ()) in
    (* Deal in reverse so each deque's front holds the lowest index. *)
    for i = n - 1 downto 0 do
      let q = queues.(i mod jobs) in
      q := i :: !q
    done;
    let results = Array.make n Pending in
    let with_lock w f =
      Mutex.lock locks.(w);
      Fun.protect ~finally:(fun () -> Mutex.unlock locks.(w)) f
    in
    let pop_own w =
      with_lock w (fun () ->
          match !(queues.(w)) with
          | [] -> None
          | i :: rest ->
              queues.(w) := rest;
              Some i)
    in
    let steal_from w =
      with_lock w (fun () ->
          match List.rev !(queues.(w)) with
          | [] -> None
          | i :: rest_rev ->
              queues.(w) := List.rev rest_rev;
              Some i)
    in
    let steal me =
      (* Longest victim first: grab from where the backlog is. *)
      let order =
        List.sort
          (fun a b -> compare (List.length !(queues.(b))) (List.length !(queues.(a))))
          (List.filter (fun w -> w <> me) (List.init jobs Fun.id))
      in
      List.fold_left
        (fun acc w -> match acc with Some _ -> acc | None -> steal_from w)
        None order
    in
    let run_task i =
      results.(i) <-
        (match tasks.(i) () with
        | v -> Done v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
    in
    let rec worker w =
      match pop_own w with
      | Some i ->
          run_task i;
          worker w
      | None -> (
          match steal w with
          | Some i ->
              run_task i;
              worker w
          | None -> () (* no new tasks are ever produced: safe to exit *))
    in
    with_grid_gc (fun () ->
        let domains =
          Array.init (jobs - 1) (fun k ->
              Domain.spawn (fun () -> worker (k + 1)))
        in
        worker 0;
        Array.iter Domain.join domains);
    Array.map
      (function
        | Done v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false (* every index was dealt and drained *))
      results
  end
