(** Executes matrix cells: one fresh bench subprocess per cell.

    Each cell runs the same curated experiment suite in its own
    subprocess (a fresh process is the only way the [COMPO_*] init-time
    switches — resolve cache default, index planning, failpoint arming
    — are honestly applied) and in its own scratch directory, so cell
    runs never clobber the repo's committed [BENCH_*.json] files.  The
    runner scrubs every inherited [COMPO_*] variable before applying
    the cell's rendering: a cell's environment is exactly its axes. *)

type config = {
  bench_exe : string;  (** path to [bench/main.exe]; made absolute *)
  smoke : bool;  (** pass [--smoke] to every cell *)
  suite : string list;  (** experiments each cell runs, e.g. [["E2"]] *)
  keep_dirs : bool;  (** keep per-cell scratch dirs (debugging) *)
  log : string -> unit;  (** progress line sink *)
}

val key_metrics : string list
(** Registry metrics harvested per cell from the subprocess's obs
    snapshots ([COMPO_BENCH_METRICS=1] companions): cache hit/miss
    traffic, index lookups, evaluator node count, fired
    failpoints (0 proves an armed cell's site never actually fired).
    [eval.node] is machine-independent for a fixed suite, so it doubles
    as a behavioural invariant across runs. *)

val run_cell : config -> Cell.t -> Report.row

val run : config -> Cell.t list -> Report.t
(** {!run_cell} over the list, in order, with progress lines. *)
