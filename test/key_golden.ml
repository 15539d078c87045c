(* Prints the cache keys and certificates of the 13 suite programs on
   e32 and m7: every per-function unit key as [Incremental.analyze]
   reports it (functionality constraints dropped, so each program
   decomposes into function units); for the WCET and BCET certificates of
   [Analysis.analyze ~certify:true], the problem digest, the MD5 of the
   whole certificate's JSON encoding and the checker's verdict; and the
   program-unit key of check_data with its functionality constraints.
   A key that changes turns every cached entry into a miss, and a
   certificate that changes is a different proof, so [dune runtest]
   diffs the output against [golden/keys.txt]; after a reviewed change,
   [dune promote] accepts the new output. *)

module A = Ipet.Analysis
module J = Ipet_obs.Json
module Machine = Ipet_machine.Machine
module Bspec = Ipet_suite.Bspec
module Incr = Ipet_serve.Incremental

let unit_keys spec =
  let rep = Incr.analyze ~stats:(Incr.fresh_stats ()) spec in
  match J.member "units" rep with
  | Some (J.List units) ->
    List.iter
      (fun u ->
        match J.member "name" u, J.member "key" u with
        | Some (J.Str name), Some (J.Str key) ->
          Printf.printf "unit %s %s\n" name key
        | _ -> failwith "unit row without a name or key")
      units
  | _ -> failwith "report without units"

let certificate what = function
  | Some (c : A.certificate) ->
    let cert = c.A.cert in
    Printf.printf "%s digest %s\n" what cert.Ipet_cert.Certificate.digest;
    Printf.printf "%s certificate %s %s\n" what
      (Digest.to_hex
         (Digest.string (J.to_string (Ipet_cert.Certificate.to_json cert))))
      (Format.asprintf "%a" (Ipet_cert.Checker.pp_verdict cert) c.A.verdict)
  | None -> failwith "no certificate"

let () =
  List.iter
    (fun mach ->
      List.iter
        (fun (b : Bspec.t) ->
          Printf.printf "=== %s %s ===\n" b.Bspec.name (Machine.id mach);
          let spec = Bspec.spec ~mach b in
          unit_keys { spec with A.functional = [] };
          let r = A.analyze ~certify:true spec in
          certificate "wcet" r.A.wcet_cert;
          certificate "bcet" r.A.bcet_cert)
        Ipet_suite.Suite.all)
    [ Machine.e32; Machine.m7 ];
  print_endline "=== check_data e32 program unit ===";
  unit_keys (Bspec.spec (Ipet_suite.Suite.find "check_data"))
