(** Front-end tests: lexer, parser, type checker. *)

module Lexer = Lp_lang.Lexer
module Parser = Lp_lang.Parser
module Ast = Lp_lang.Ast
module Typecheck = Lp_lang.Typecheck

let check = Alcotest.check
let fail = Alcotest.fail

let tokens src = List.map (fun (l : Lexer.located) -> l.Lexer.tok) (Lexer.tokenize src)

(* ---------------- lexer ---------------- *)

let test_lex_basic () =
  match tokens "int x = 42;" with
  | [ Lexer.KW_INT; Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.INT_LIT 42;
      Lexer.SEMI; Lexer.EOF ] -> ()
  | ts -> Alcotest.failf "unexpected tokens: %s"
            (String.concat " " (List.map Lexer.token_to_string ts))

let test_lex_operators () =
  match tokens "<< >> <= >= == != && || & | ^ ~" with
  | [ Lexer.SHL; Lexer.SHR; Lexer.LE; Lexer.GE; Lexer.EQEQ; Lexer.NE;
      Lexer.ANDAND; Lexer.OROR; Lexer.AMP; Lexer.PIPE; Lexer.CARET;
      Lexer.TILDE; Lexer.EOF ] -> ()
  | _ -> fail "operator lexing"

let test_lex_comments () =
  match tokens "1 // line comment\n 2 /* block \n comment */ 3" with
  | [ Lexer.INT_LIT 1; Lexer.INT_LIT 2; Lexer.INT_LIT 3; Lexer.EOF ] -> ()
  | _ -> fail "comments not skipped"

let test_lex_float () =
  match tokens "2.5 7." with
  | [ Lexer.FLOAT_LIT a; Lexer.FLOAT_LIT b; Lexer.EOF ] ->
    check (Alcotest.float 1e-9) "2.5" 2.5 a;
    check (Alcotest.float 1e-9) "7.0" 7.0 b
  | _ -> fail "float lexing"

let test_lex_pragma () =
  match tokens "#pragma lp pattern(doall)\nint x;" with
  | Lexer.PRAGMA "pattern(doall)" :: Lexer.KW_INT :: _ -> ()
  | _ -> fail "pragma lexing"

let test_lex_errors () =
  (try ignore (Lexer.tokenize "int $ x;"); fail "expected lex error"
   with Lexer.Lex_error _ -> ());
  (try ignore (Lexer.tokenize "/* unterminated"); fail "expected lex error"
   with Lexer.Lex_error _ -> ());
  try ignore (Lexer.tokenize "#pragma omp parallel\n"); fail "expected lex error"
  with Lexer.Lex_error _ -> ()

let test_lex_line_numbers () =
  let toks = Lexer.tokenize "int a;\nint b;" in
  let b_line =
    List.find_map
      (fun (l : Lexer.located) ->
        match l.Lexer.tok with Lexer.IDENT "b" -> Some l.Lexer.line | _ -> None)
      toks
  in
  check Alcotest.(option int) "line of b" (Some 2) b_line

(* ---------------- parser ---------------- *)

let parse = Parser.parse_program

let main_body src =
  let p = parse src in
  (List.find (fun (f : Ast.func) -> f.Ast.fname = "main") p.Ast.funcs).Ast.fbody

let test_parse_precedence () =
  (* 1 + 2 * 3 must parse as 1 + (2 * 3) *)
  match main_body "int main() { return 1 + 2 * 3; }" with
  | [ { Ast.sdesc =
          Ast.Return
            (Some { edesc = Ast.Binop (Ast.Add, { edesc = Ast.Int_lit 1; _ },
                                       { edesc = Ast.Binop (Ast.Mul, _, _); _ }); _ });
        _ } ] -> ()
  | _ -> fail "precedence of + vs *"

let test_parse_shift_precedence () =
  (* a << b + c  ==  a << (b + c), as in C *)
  match main_body "int main() { int a = 1; int b = 2; int c = 3; return a << b + c; }" with
  | [ _; _; _;
      { Ast.sdesc =
          Ast.Return
            (Some { edesc = Ast.Binop (Ast.Shl, { edesc = Ast.Var "a"; _ },
                                       { edesc = Ast.Binop (Ast.Add, _, _); _ }); _ });
        _ } ] -> ()
  | _ -> fail "precedence of << vs +"

let test_parse_unary () =
  match main_body "int main() { return -1 + !0; }" with
  | [ { Ast.sdesc =
          Ast.Return
            (Some { edesc = Ast.Binop (Ast.Add, { edesc = Ast.Unop (Ast.Neg, _); _ },
                                       { edesc = Ast.Unop (Ast.Not, _); _ }); _ });
        _ } ] -> ()
  | _ -> fail "unary parsing"

let test_parse_for () =
  match main_body "int main() { for (int i = 0; i < 4; i = i + 1) { } return 0; }" with
  | [ { Ast.sdesc = Ast.For ({ Ast.sdesc = Ast.Decl (Ast.Tint, "i", Some _); _ },
                             { edesc = Ast.Binop (Ast.Lt, _, _); _ },
                             { Ast.sdesc = Ast.Assign ("i", _); _ }, []); _ };
      _ ] -> ()
  | _ -> fail "for parsing"

let test_parse_pragma_attach () =
  let body =
    main_body
      "int main() { #pragma lp pattern(farm, chunk=4)\nfor (int i = 0; i < 4; i = i + 1) { } return 0; }"
  in
  match body with
  | [ { Ast.pragmas = [ { Ast.pkey = "pattern"; pargs = [ "farm"; "chunk=4" ]; _ } ];
        Ast.sdesc = Ast.For _; _ };
      _ ] -> ()
  | _ -> fail "pragma attachment"

let test_parse_globals () =
  let p = parse "int tab[4] = {1, -2, 3};\nint s = -7;\nfloat f;\nint main() { return 0; }" in
  match p.Ast.globals with
  | [ { Ast.gname = "tab"; gty = Ast.Tarray (Ast.Tint, 4); ginit = Some [ 1; -2; 3 ]; _ };
      { Ast.gname = "s"; gty = Ast.Tint; ginit = Some [ -7 ]; _ };
      { Ast.gname = "f"; gty = Ast.Tfloat; ginit = None; _ } ] -> ()
  | _ -> fail "global parsing"

let test_parse_call_and_index () =
  match main_body "int main() { int x = f(1, 2) + a[3]; return x; }" with
  | [ { Ast.sdesc =
          Ast.Decl (_, "x",
                    Some { edesc = Ast.Binop (Ast.Add,
                                              { edesc = Ast.Call ("f", [ _; _ ]); _ },
                                              { edesc = Ast.Index ("a", _); _ }); _ });
        _ };
      _ ] -> ()
  | _ -> fail "call/index parsing"

let test_parse_dangling_else () =
  (* else binds to nearest if *)
  match main_body "int main() { if (1) if (0) return 1; else return 2; return 3; }" with
  | [ { Ast.sdesc = Ast.If (_, [ { Ast.sdesc = Ast.If (_, _, [ _ ]); _ } ], []); _ }; _ ] -> ()
  | _ -> fail "dangling else"

let test_parse_errors () =
  List.iter
    (fun src ->
      try
        ignore (parse src);
        Alcotest.failf "expected parse error for %S" src
      with Parser.Parse_error _ -> ())
    [
      "int main() { return 1 }";
      "int main() { int = 3; }";
      "int main( { return 0; }";
      "int main() { for (int i = 0) {} }";
      "int x[] = {};";
      "int main() { a[1; }";
    ]

(* ---------------- typecheck ---------------- *)

let typecheck src = Typecheck.check_program (parse src)

let ok src =
  try typecheck src
  with Typecheck.Type_error (m, _) -> Alcotest.failf "unexpected type error: %s" m

let bad src =
  try
    typecheck src;
    Alcotest.failf "expected a type error in %S" src
  with Typecheck.Type_error _ -> ()

let test_typecheck_ok () =
  ok "int main() { int x = 1; float y = 2.5; y = y + float(x); return int(y); }";
  ok "int g[8];\nint main() { g[0] = 1; return g[0]; }";
  ok "int add(int a, int b) { return a + b; }\nint main() { return add(1, 2); }";
  ok "void nop() { return; }\nint main() { nop(); return 0; }";
  ok "int main() { int x = 0; { int x = 1; x = x + 1; } return x; }";
  ok "int main() { return __recv(0) + __faa(gc, 1); }\nint gc;" |> ignore

let test_typecheck_bad () =
  bad "int main() { return 1.5; }";
  bad "int main() { int x = 1.0; return 0; }";
  bad "int main() { return 1 + 2.0; }";
  bad "int main() { return 1.5 % 2.0; }";
  bad "float f;\nint main() { if (f) { } return 0; }";
  bad "int main() { return unknown(1); }";
  bad "int g[4];\nint main() { g = 3; return 0; }";
  bad "int main() { int x; int x; return 0; }";
  bad "int f() { return 0; }\nint f() { return 1; }\nint main() { return 0; }";
  bad "int main(int argc) { return 0; }";
  bad "void main() { }";
  bad "int nope() { return 0; }";
  (* last one has no main at all *)
  bad "int __evil() { return 0; }\nint main() { return 0; }"

let test_typecheck_missing_main () =
  bad "int f() { return 0; }"

let test_typecheck_intrinsics () =
  ok "int main() { __send(0, 1); __barrier(2); return __recv(1); }";
  bad "int main() { __send(1.0, 1); return 0; }";
  bad "int main() { return __recvf(0); }"

let suite =
  [
    Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex float" `Quick test_lex_float;
    Alcotest.test_case "lex pragma" `Quick test_lex_pragma;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "lex line numbers" `Quick test_lex_line_numbers;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse shift precedence" `Quick test_parse_shift_precedence;
    Alcotest.test_case "parse unary" `Quick test_parse_unary;
    Alcotest.test_case "parse for" `Quick test_parse_for;
    Alcotest.test_case "parse pragma attach" `Quick test_parse_pragma_attach;
    Alcotest.test_case "parse globals" `Quick test_parse_globals;
    Alcotest.test_case "parse call/index" `Quick test_parse_call_and_index;
    Alcotest.test_case "parse dangling else" `Quick test_parse_dangling_else;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "typecheck ok" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck bad" `Quick test_typecheck_bad;
    Alcotest.test_case "typecheck missing main" `Quick test_typecheck_missing_main;
    Alcotest.test_case "typecheck intrinsics" `Quick test_typecheck_intrinsics;
  ]

(* ---------------- pretty-printer round trip ---------------- *)

(* print -> parse -> print must be a fixpoint, over every bundled
   workload (pragma-carrying, multi-function, float-using sources) and
   1001 generated programs *)
let test_printer_round_trip () =
  let programs =
    List.map
      (fun (w : Lp_workloads.Workload.t) ->
        (w.Lp_workloads.Workload.name, w.Lp_workloads.Workload.source))
      Lp_workloads.Suite.all
    @ List.init 1001 (fun seed ->
          (Printf.sprintf "gen seed %d" seed, (Lp_robust.Gen.generate ~seed).Lp_robust.Gen.source))
  in
  List.iter
    (fun (name, src) ->
      let p1 = Lp_lang.Ast_printer.program_to_string (parse src) in
      let p2 = Lp_lang.Ast_printer.program_to_string (parse p1) in
      if p1 <> p2 then Alcotest.failf "%s: printer not a fixpoint" name;
      (* and the reprinted program still type-checks *)
      Typecheck.check_program (parse p1))
    programs

(* the parallelizer's generated program must also survive the round trip *)
let test_printer_round_trip_generated () =
  let w = Lp_workloads.Suite.find_exn "fir" in
  let ast = parse w.Lp_workloads.Workload.source in
  Typecheck.check_program ast;
  let det = Lp_patterns.Detect.detect ast in
  let (gen, _) =
    Lp_transforms.Parallelize.run ~n_cores:4 ast
      det.Lp_patterns.Pattern.instances
  in
  let p1 = Lp_lang.Ast_printer.program_to_string gen in
  let p2 = Lp_lang.Ast_printer.program_to_string (parse p1) in
  Alcotest.(check string) "generated fixpoint" p1 p2;
  Typecheck.check_program (parse p1)

let suite =
  suite
  @ [
      Alcotest.test_case "printer round trip" `Quick test_printer_round_trip;
      Alcotest.test_case "printer round trip (generated)" `Quick
        test_printer_round_trip_generated;
    ]

(* ---------------- token positions, literals, error precedence ---------------- *)

(* (token, line, col) of every token, [col] being the column just after
   the token.  Covers both comment forms, a pragma line, every
   two-character operator next to its one-character prefix, a tab, a
   leading-zero int, "7." and the position of EOF. *)
let golden_src =
  "/* block comment\n   spanning two lines */\nint main() { // line comment\n#pragma lp pattern(doall, chunk=4)\n  float f = 7. + 2.5;\n  x = a<<b>>c<=d>=e==f!=g&&h||i<j>k=!l&m|n^~o;\n\treturn 007 % q[0] * 3 / 1 - 9;\n}\n  "

let golden_tokens =
  [
    ("int", 3, 4); ("main", 3, 9); ("(", 3, 10); (")", 3, 11); ("{", 3, 13);
    ("#pragma lp pattern(doall, chunk=4)", 4, 35); ("float", 5, 8);
    ("f", 5, 10); ("=", 5, 12); ("7.", 5, 15); ("+", 5, 17); ("2.5", 5, 21);
    (";", 5, 22); ("x", 6, 4); ("=", 6, 6); ("a", 6, 8); ("<<", 6, 10);
    ("b", 6, 11); (">>", 6, 13); ("c", 6, 14); ("<=", 6, 16); ("d", 6, 17);
    (">=", 6, 19); ("e", 6, 20); ("==", 6, 22); ("f", 6, 23); ("!=", 6, 25);
    ("g", 6, 26); ("&&", 6, 28); ("h", 6, 29); ("||", 6, 31); ("i", 6, 32);
    ("<", 6, 33); ("j", 6, 34); (">", 6, 35); ("k", 6, 36); ("=", 6, 37);
    ("!", 6, 38); ("l", 6, 39); ("&", 6, 40); ("m", 6, 41); ("|", 6, 42);
    ("n", 6, 43); ("^", 6, 44); ("~", 6, 45); ("o", 6, 46); (";", 6, 47);
    ("return", 7, 8); ("7", 7, 12); ("%", 7, 14); ("q", 7, 16); ("[", 7, 17);
    ("0", 7, 18); ("]", 7, 19); ("*", 7, 21); ("3", 7, 23); ("/", 7, 25);
    ("1", 7, 27); ("-", 7, 29); ("9", 7, 31); (";", 7, 32); ("}", 8, 2);
    ("<eof>", 9, 3);
  ]

let test_lex_golden_positions () =
  let got =
    List.map
      (fun (l : Lexer.located) ->
        (Lexer.token_to_string l.Lexer.tok, l.Lexer.line, l.Lexer.col))
      (Lexer.tokenize golden_src)
  in
  check Alcotest.(list (triple string int int)) "tokens" golden_tokens got

let test_lex_int_range () =
  (match tokens "4611686018427387903" with
  | [ Lexer.INT_LIT n; Lexer.EOF ] -> check Alcotest.int "max_int" max_int n
  | _ -> fail "max_int literal");
  (match tokens "99999999999999999999.5" with
  | [ Lexer.FLOAT_LIT f; Lexer.EOF ] ->
    check (Alcotest.float 1.) "long float" 99999999999999999999.5 f
  | _ -> fail "long float literal");
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | _ -> Alcotest.failf "expected a lex error for %S" src
      | exception Lexer.Lex_error (msg, line) ->
        check Alcotest.string "message" "integer literal out of range" msg;
        check Alcotest.int "line" 2 line)
    [ "int x;\n4611686018427387904"; "\n99999999999999999999 1" ];
  let machine = Lp_machine.Machine.generic ~n_cores:4 () in
  match
    Lowpower.Compile.compile_result ~machine
      "int main() {\n  return 99999999999999999999;\n}"
  with
  | Error d ->
    check Alcotest.string "code" "E_LEX" d.Lp_util.Diag.code;
    check Alcotest.(option int) "line" (Some 2) d.Lp_util.Diag.line
  | Ok _ -> fail "oversized literal must not compile"

(* The lexer scans a token only when the parser advances onto it, so
   the first error in source order wins: a parse error before a bad
   character is E_PARSE. *)
let test_first_error_wins () =
  let machine = Lp_machine.Machine.generic ~n_cores:4 () in
  let code src =
    match Lowpower.Compile.compile_result ~machine src with
    | Error d -> d.Lp_util.Diag.code
    | Ok _ -> "ok"
  in
  check Alcotest.string "parse error first" "E_PARSE" (code "int main( { $ }");
  check Alcotest.string "lex error first" "E_LEX" (code "int main() { $ return 0 }");
  check Alcotest.string "bad pragma first" "E_PARSE"
    (code "#pragma lp pattern(doall\n$ int main() { }")

(* Deterministic proxy for frontend cost: words allocated (minor plus
   direct major) per source byte when parsing and checking dotprod,
   whose 8192 initialiser ints make it literal-heavy. *)
let test_frontend_alloc () =
  let src = (Lp_workloads.Suite.find_exn "dotprod").Lp_workloads.Workload.source in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  ignore (Lowpower.Compile.parse_and_check src);
  let per_byte = (words () -. w0) /. float_of_int (String.length src) in
  if per_byte > 4.0 then
    Alcotest.failf "frontend allocated %.2f words per source byte (limit 4)" per_byte

let suite =
  suite
  @ [
      Alcotest.test_case "lex golden positions" `Quick test_lex_golden_positions;
      Alcotest.test_case "lex int range" `Quick test_lex_int_range;
      Alcotest.test_case "frontend first error wins" `Quick test_first_error_wins;
      Alcotest.test_case "frontend allocation per byte" `Quick test_frontend_alloc;
    ]
