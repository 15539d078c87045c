(* Kept for ledger/, no other caller: ledger/ names the codec
   [Ipet_serve.Json]. The codec itself is {!Ipet_obs.Json}. *)
include Ipet_obs.Json
