(* In-memory spans for the traced run: a name, start and end stamps, the
   span that caused it and the job (or request) it belongs to. Slots are
   preallocated and claimed with one fetch-and-add, so the producer and
   the pool's workers can record concurrently; spans past the capacity
   are counted and dropped. *)

type t = {
  names : string array;
  name : int array;
  parent : int array;
  job : int array;
  start : int array;
  stop : int array;
  next : int Atomic.t;
}

let none = -1

let create ~names ~capacity =
  let a () = Array.make capacity none in
  {
    names;
    name = a ();
    parent = a ();
    job = a ();
    start = a ();
    stop = a ();
    next = Atomic.make 0;
  }

let name_id t s =
  let rec go i =
    if i = Array.length t.names then invalid_arg ("Spans.name_id: " ^ s)
    else if t.names.(i) = s then i
    else go (i + 1)
  in
  go 0

(* Open a span that started at [start]; returns its id, or [none] when
   the buffer is full (closing [none] is a no-op). *)
let open_at t ~name ~parent ~job ~start =
  let i = Atomic.fetch_and_add t.next 1 in
  if i >= Array.length t.name then none
  else begin
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.job.(i) <- job;
    t.start.(i) <- start;
    i
  end

let close_at t id ~stop = if id <> none then t.stop.(id) <- stop

let count t = Int.min (Atomic.get t.next) (Array.length t.name)
let dropped t = Int.max 0 (Atomic.get t.next - Array.length t.name)

(* Self time of every closed span: its duration minus the part its
   children cover (children of one span do not overlap here: each is a
   call made in turn by the code the parent span times). Call once all
   recording domains are quiescent. *)
let self_ns t =
  let n = count t in
  let self = Array.init n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to n - 1 do
    let p = t.parent.(i) in
    if p <> none && p < n then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

(* Self times of the spans called [name], in microseconds. *)
let self_us_of t name =
  let id = name_id t name in
  let self = self_ns t in
  let acc = ref [] in
  for i = count t - 1 downto 0 do
    if t.name.(i) = id && t.stop.(i) <> none then
      acc := (float_of_int self.(i) /. 1e3) :: !acc
  done;
  Array.of_list !acc

let write t path =
  let oc = open_out path in
  Printf.fprintf oc "{\"names\": [%s], \"dropped\": %d, \"spans\": ["
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "%S") t.names)))
    (dropped t);
  for i = 0 to count t - 1 do
    Printf.fprintf oc "%s[%d, %d, %d, %d, %d, %d]"
      (if i = 0 then "" else ",\n")
      i t.parent.(i) t.job.(i) t.name.(i) t.start.(i) t.stop.(i)
  done;
  output_string oc "]}\n";
  close_out oc
