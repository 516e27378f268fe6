(* Seeded R1 violation: a read-back compared with the polymorphic equality,
   a C call that walks both sector strings through the generic compare
   instead of String.equal (line 5, asserted by test_lint.ml). *)
let verified ~read ~expect sector =
  read sector = expect
