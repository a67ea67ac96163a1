(* The comparison rule of `perf.exe compare`, on synthetic run sets. *)

open Perfkit

let verdict =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Verdict.to_string v)) ( = )

let check name expected ~better ~bound base change =
  Alcotest.check verdict name expected (Verdict.verdict ~better ~bound ~base ~change)

let lower = Catalogue.Lower
let higher = Catalogue.Higher

(* Values Python's statistics.quantiles(data, n=4) gives. *)
let test_quartiles () =
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Verdict.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "unsorted five" (1.5, 3.0, 4.5) (Verdict.quartiles [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check q "two values" (0.75, 1.5, 2.25) (Verdict.quartiles [ 2.; 1. ]);
  Alcotest.check q "one value" (7.0, 7.0, 7.0) (Verdict.quartiles [ 7. ]);
  Alcotest.(check (float 1e-12)) "spread" 0.1
    (Verdict.spread [ 95.; 95.; 100.; 105.; 105. ])

let test_identical () =
  check "identical simulated values are the same" Verdict.Same ~better:higher
    ~bound:0.05 [ 3.5; 3.5; 3.5 ] [ 3.5; 3.5; 3.5 ];
  check "small noise is the same" Verdict.Same ~better:lower ~bound:0.2
    [ 100.; 104.; 98.; 101.; 99. ] [ 101.; 97.; 103.; 100.; 102. ]

let test_worse () =
  check "slower beyond the bound" Verdict.Worse ~better:lower ~bound:0.1
    [ 100.; 101.; 99.; 100.; 100. ] [ 120.; 121.; 119.; 120.; 122. ];
  check "lower throughput beyond the bound" Verdict.Worse ~better:higher ~bound:0.05
    [ 10.; 10.; 10. ] [ 9.; 9.; 9. ];
  check "worse but within the bound" Verdict.Same ~better:lower ~bound:0.25
    [ 100.; 101.; 99.; 100.; 100. ] [ 110.; 111.; 109.; 110.; 110. ]

let test_better () =
  check "every pair faster" Verdict.Better ~better:lower ~bound:0.1
    [ 100.; 101.; 99.; 100.; 102. ] [ 90.; 91.; 89.; 90.; 92. ];
  check "higher throughput" Verdict.Better ~better:higher ~bound:0.05
    [ 10.; 10.; 10. ] [ 11.; 11.; 11. ];
  (* a gain inside the base's own spread is not a gain *)
  check "gain within the spread" Verdict.Same ~better:lower ~bound:0.2
    [ 90.; 100.; 110.; 95.; 105. ] [ 88.; 98.; 108.; 93.; 103. ];
  (* the median improves, but only 3 of 5 pairs win *)
  check "too few pairs win" Verdict.Same ~better:lower ~bound:0.2
    [ 100.; 100.; 100.; 100.; 100. ] [ 90.; 90.; 90.; 101.; 101. ]

let test_unresolved () =
  check "spread wider than the bound" Verdict.Unresolved ~better:lower ~bound:0.05
    [ 80.; 120.; 100.; 90.; 110. ] [ 85.; 115.; 100.; 95.; 105. ];
  check "noisy change side" Verdict.Unresolved ~better:lower ~bound:0.05
    [ 100.; 100.; 100.; 100.; 100. ] [ 80.; 120.; 100.; 90.; 110. ];
  check "noisy, but every change run better" Verdict.Better ~better:lower ~bound:0.05
    [ 150.; 170.; 160.; 180.; 165. ] [ 80.; 120.; 100.; 90.; 110. ]

let test_zero_median () =
  check "both zero" Verdict.Same ~better:lower ~bound:0.1 [ 0.; 0. ] [ 0.; 0. ]

let () =
  Alcotest.run "perf verdict"
    [
      ( "verdict",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "identical" `Quick test_identical;
          Alcotest.test_case "worse" `Quick test_worse;
          Alcotest.test_case "better" `Quick test_better;
          Alcotest.test_case "unresolved" `Quick test_unresolved;
          Alcotest.test_case "zero median" `Quick test_zero_median;
        ] );
    ]
