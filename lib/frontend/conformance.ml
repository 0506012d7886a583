(* Executable conformance contract — see conformance.mli. *)

module Archive = Difftrace_parlot.Archive

type violation = {
  vl_property : string;
  vl_detail : string;
}

let violation_to_string v =
  Printf.sprintf "[%s] %s" v.vl_property v.vl_detail

(* evaluate indices high-to-low: still an array in order, but any
   frontend that leans on evaluation order of the per-thread closures
   (e.g. by interning inside them) produces a different digest here *)
let reversed_runner =
  { Difftrace_util.Runner.run =
      (fun n f ->
        if n = 0 then [||]
        else begin
          let last = f (n - 1) in
          let a = Array.make n last in
          for i = n - 2 downto 0 do
            a.(i) <- f i
          done;
          a
        end) }

let err_str = Frontend.error_to_string

let check ?(alt_runner = reversed_runner) ?scratch fe input =
  let vs = ref [] in
  let fail vl_property vl_detail =
    vs := { vl_property; vl_detail } :: !vs
  in
  (* totality: the raw ingest function, not the ingest_string wrapper
     that charitably converts escaped exceptions into typed errors *)
  let raw =
    match fe.Frontend.ingest ~runner:Difftrace_util.Runner.sequential input with
    | r -> Some r
    | exception exn ->
      fail "totality"
        (Printf.sprintf "ingest raised %s" (Printexc.to_string exn));
      None
  in
  (match raw with
  | None -> ()
  | Some first ->
    (* determinism: a second run over the same bytes must agree *)
    (match (first, Frontend.ingest_string fe input) with
    | Ok a, Ok b ->
      let da = Frontend.digest a and db = Frontend.digest b in
      if da <> db then
        fail "determinism"
          (Printf.sprintf "two ingests disagree: %s vs %s" da db)
    | Error a, Error b ->
      if err_str a <> err_str b then
        fail "determinism"
          (Printf.sprintf "two ingests disagree on the error: %S vs %S"
             (err_str a) (err_str b))
    | Ok _, Error e ->
      fail "determinism" ("second ingest failed where the first succeeded: " ^ err_str e)
    | Error e, Ok _ ->
      fail "determinism" ("second ingest succeeded where the first failed: " ^ err_str e));
    (* runner parity: the schedule must not be observable *)
    (match (first, Frontend.ingest_string fe ~runner:alt_runner input) with
    | Ok a, Ok b ->
      let da = Frontend.digest a and db = Frontend.digest b in
      if da <> db then
        fail "parity"
          (Printf.sprintf "digest depends on the runner: %s vs %s" da db)
    | Error a, Error b ->
      if err_str a <> err_str b then
        fail "parity"
          (Printf.sprintf "error depends on the runner: %S vs %S" (err_str a)
             (err_str b))
    | Ok _, Error e ->
      fail "parity" ("alternate runner failed where sequential succeeded: " ^ err_str e)
    | Error e, Ok _ ->
      fail "parity" ("alternate runner succeeded where sequential failed: " ^ err_str e));
    (match first with
    | Error _ -> ()
    | Ok ts ->
      let d0 = Frontend.digest ts in
      (* round-trip: render then re-ingest is a digest fixed point *)
      (match Frontend.ingest_string fe (fe.Frontend.render ts) with
      | Error e ->
        fail "round-trip" ("re-ingesting the rendered set failed: " ^ err_str e)
      | Ok ts' ->
        let d1 = Frontend.digest ts' in
        if d0 <> d1 then
          fail "round-trip"
            (Printf.sprintf "render/re-ingest is not a fixed point: %s vs %s"
               d0 d1));
      (* salvage compatibility: archive round trip under salvage mode.
         A fresh per-input subdirectory keeps stale trace files from an
         earlier, larger set out of this load. *)
      (match scratch with
      | None -> ()
      | Some base -> (
        let dir =
          Filename.concat base
            ("conf-" ^ Digest.to_hex (Digest.string input))
        in
        match
          let (_ : int) = Archive.save ~dir ts in
          Archive.load ~salvage:true ~dir ()
        with
        | exception exn ->
          fail "salvage"
            (Printf.sprintf "archive round trip raised %s"
               (Printexc.to_string exn))
        | Error e ->
          fail "salvage"
            ("archive round trip failed: " ^ Archive.error_to_string e)
        | Ok { Archive.set; salvaged; _ } ->
          if salvaged <> [] then
            fail "salvage"
              (Printf.sprintf "pristine archive salvaged %d trace(s)"
                 (List.length salvaged));
          let d1 = Frontend.digest set in
          if d1 <> d0 then
            fail "salvage"
              (Printf.sprintf "archive round trip changed the digest: %s vs %s"
                 d0 d1)))));
  List.rev !vs
