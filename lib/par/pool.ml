type t = unit

let create ~jobs:_ = ()
