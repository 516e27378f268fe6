(* Seeded R1 violation: virtual time ordered by the polymorphic compare, a C
   call per comparison on the engine's hot path.  A module may define its
   own [compare], but not bind it to Stdlib's (line 5, asserted by
   test_lint.ml). *)
let compare = Stdlib.compare
