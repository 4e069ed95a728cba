(* Kernel and server counters, read by name.

   Counts come from the metrics registry the kernel already keeps: the
   in-process one for the in-process workloads, the server's (over the
   public [stats] opcode, JSON format) for [designer].  A counter is only
   ever looked up by name, so a change that deletes one makes the
   derived metric [null] instead of breaking the benchmark. *)

module Metrics = Compo_obs.Metrics
module Json = Compo_obs.Json_min

(* A counter or gauge reads as [value]; a histogram as its observation
   count in [value] plus the sum of its observations. *)
type reading = { value : float; sum : float }
type snapshot = (string * reading) list

let of_registry names =
  List.filter_map
    (fun name ->
      match Metrics.find name with
      | Some (Metrics.Counter c) -> Some (name, { value = float_of_int c; sum = 0. })
      | Some (Metrics.Gauge g) -> Some (name, { value = g; sum = 0. })
      | Some (Metrics.Histogram h) ->
          Some (name, { value = float_of_int h.Metrics.h_count; sum = h.Metrics.h_sum })
      | None -> None)
    names

let num field j =
  Option.value ~default:0. (Option.bind (Json.member field j) Json.to_float)

let of_json text =
  match Json.parse text with
  | Error msg -> Error msg
  | Ok doc ->
      Ok
        (List.filter_map
           (fun m ->
             match Option.bind (Json.member "name" m) Json.to_string with
             | None -> None
             | Some name -> (
                 match Option.bind (Json.member "kind" m) Json.to_string with
                 | Some "histogram" ->
                     Some (name, { value = num "count" m; sum = num "sum" m })
                 | _ -> Some (name, { value = num "value" m; sum = 0. })))
           (Json.to_list
              (Option.value ~default:Json.Null (Json.member "metrics" doc))))

(* Change of one metric between two snapshots; [None] when [after] does
   not carry it (the counter no longer exists). *)
let delta ~before ~after name =
  match List.assoc_opt name after with
  | None -> None
  | Some a ->
      let b = Option.value ~default:{ value = 0.; sum = 0. } (List.assoc_opt name before) in
      Some { value = a.value -. b.value; sum = a.sum -. b.sum }

let value_delta ~before ~after name =
  Option.map (fun r -> r.value) (delta ~before ~after name)

(* Mean of a histogram's observations over the window, in microseconds. *)
let mean_us ~before ~after name =
  Option.map
    (fun r -> if r.value = 0. then 0. else r.sum /. r.value *. 1e6)
    (delta ~before ~after name)

(* Resolve-cache hits per lookup over the window. *)
let cache_hit_ratio ~before ~after =
  match
    ( value_delta ~before ~after "inheritance.cache.hit",
      value_delta ~before ~after "inheritance.cache.lookup" )
  with
  | Some hit, Some lookup -> Some (Stats.ratio hit lookup)
  | _ -> None
