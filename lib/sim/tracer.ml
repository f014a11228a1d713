(** Waveform tracing: wrap any backend so every stepped cycle dumps the
    ports (and optionally all registers) to a VCD file — the ordinary
    debugging loop of a software RTL simulator, and the source of the
    recorded traces used by the §5.1 replay methodology. *)

module Bv = Sic_bv.Bv
open Sic_ir

type t = {
  backend : Backend.t;
  writer : Vcd.writer;
  oc : out_channel;
  signals : string list;
  mutable closed : bool;
}

(** Signals worth watching: all ports except clock, plus registers when
    [~regs:true]. *)
let watchlist ?(regs = false) (b : Backend.t) : (string * int) list =
  let m = Circuit.main b.Backend.circuit in
  let ports =
    List.filter_map
      (fun (p : Circuit.port) ->
        if p.Circuit.port_name = "clock" then None
        else Some (p.Circuit.port_name, Ty.width p.Circuit.port_ty))
      m.Circuit.ports
  in
  let registers =
    if not regs then []
    else begin
      let out = ref [] in
      Stmt.iter
        (fun s ->
          match s with
          | Stmt.Reg { name; ty; _ } -> out := (name, Ty.width ty) :: !out
          | _ -> ())
        m.Circuit.body;
      List.rev !out
    end
  in
  ports @ registers

(** [attach ~path b] returns a backend that behaves like [b] but writes
    one VCD sample per stepped cycle. Call [close] when done: it emits one
    final sample (the post-run state) and flushes before closing the
    file. *)
let attach ?(regs = false) ~path (b : Backend.t) : Backend.t * (unit -> unit) =
  let signals = watchlist ~regs b in
  let oc = open_out path in
  let writer = Vcd.create_writer oc ~scope:(Circuit.main b.Backend.circuit).Circuit.module_name signals in
  let t = { backend = b; writer; oc; signals = List.map fst signals; closed = false } in
  let sample () =
    Vcd.sample t.writer (List.map (fun n -> (n, b.Backend.peek n)) t.signals)
  in
  let close () =
    if not t.closed then begin
      t.closed <- true;
      (* the post-run state: every sample so far was taken pre-edge, so the
         effect of the last step is only visible in this final sample *)
      sample ();
      flush t.oc;
      close_out t.oc
    end
  in
  let traced =
    {
      b with
      Backend.backend_name = b.Backend.backend_name ^ "+vcd";
      step =
        (fun n ->
          for _ = 1 to n do
            sample ();
            b.Backend.step 1
          done);
      restore = (fun () -> Backend.error "restore: a VCD trace cannot rewind");
    }
  in
  (traced, close)
