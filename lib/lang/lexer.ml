(** Hand-written pull lexer for MiniC.

    A lexer [t] holds the current token and its position in mutable
    fields; [next] scans the following token in place, so the LL(1)
    parser reads each token straight from the lexer as it needs it.
    [line] and [col] are those of the end of the current token ([col] is
    the column just after it, 1-based).  [#pragma lp ...] lines become
    dedicated [PRAGMA] tokens so the parser can attach them to the
    following statement or function.  [Lex_error] is raised only when the
    parser advances onto the offending text, so between lex and parse
    errors the first in source order wins. *)

type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW_INT | KW_FLOAT | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | SHL | SHR | AMP | PIPE | CARET | TILDE
  | LT | LE | GT | GE | EQEQ | NE | BANG
  | ANDAND | OROR
  | ASSIGN
  | PRAGMA of string  (** raw text after "#pragma lp" *)
  | EOF

exception Lex_error of string * int  (** message, line *)

let token_to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
  | KW_INT -> "int" | KW_FLOAT -> "float" | KW_VOID -> "void"
  | KW_IF -> "if" | KW_ELSE -> "else" | KW_WHILE -> "while"
  | KW_FOR -> "for" | KW_RETURN -> "return"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> ","
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | SHL -> "<<" | SHR -> ">>" | AMP -> "&" | PIPE -> "|" | CARET -> "^"
  | TILDE -> "~"
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | EQEQ -> "==" | NE -> "!="
  | BANG -> "!"
  | ANDAND -> "&&" | OROR -> "||"
  | ASSIGN -> "="
  | PRAGMA s -> "#pragma lp " ^ s
  | EOF -> "<eof>"

type located = { tok : token; line : int; col : int }

type t = {
  src : string;
  mutable pos : int;  (** next unscanned byte *)
  mutable line : int;
  mutable bol : int;  (** byte offset of the start of [line] *)
  mutable tok : token;
}

let col lx = lx.pos - lx.bol + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

(* the first index at or after [i] that ends a run of digits, identifier
   characters or a line *)
let rec digits_end s i = if i < String.length s && is_digit s.[i] then digits_end s (i + 1) else i
let rec ident_end s i = if i < String.length s && is_ident_char s.[i] then ident_end s (i + 1) else i
let rec line_end s i = if i < String.length s && s.[i] <> '\n' then line_end s (i + 1) else i

let at lx k c = lx.pos + k < String.length lx.src && lx.src.[lx.pos + k] = c

let newline lx i = lx.line <- lx.line + 1; lx.bol <- i + 1

(* index just past the "*/" closing a block comment whose body starts at
   [i]; counts the newlines on the way *)
let rec comment_end lx i =
  let src = lx.src in
  if i + 1 >= String.length src then begin
    if i < String.length src && src.[i] = '\n' then newline lx i;
    raise (Lex_error ("unterminated comment", lx.line))
  end
  else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
  else begin
    if src.[i] = '\n' then newline lx i;
    comment_end lx (i + 1)
  end

(* skip blanks and comments, leaving [pos] on a token's first byte or at
   the end of input *)
let rec skip lx =
  if lx.pos < String.length lx.src then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' -> lx.pos <- lx.pos + 1; skip lx
    | '\n' -> newline lx lx.pos; lx.pos <- lx.pos + 1; skip lx
    | '/' when at lx 1 '/' -> lx.pos <- line_end lx.src lx.pos; skip lx
    | '/' when at lx 1 '*' -> lx.pos <- comment_end lx (lx.pos + 2); skip lx
    | _ -> ()

let ident_or_keyword = function
  | "int" -> KW_INT
  | "float" -> KW_FLOAT
  | "void" -> KW_VOID
  | "if" -> KW_IF
  | "else" -> KW_ELSE
  | "while" -> KW_WHILE
  | "for" -> KW_FOR
  | "return" -> KW_RETURN
  | word -> IDENT word

(* decimal value of [src.[i..j-1]], all digits *)
let rec int_value lx j i acc =
  if i = j then acc
  else
    let d = Char.code lx.src.[i] - 48 in
    if acc > (max_int - d) / 10 then
      raise (Lex_error ("integer literal out of range", lx.line));
    int_value lx j (i + 1) (acc * 10 + d)

let set lx len tok = lx.pos <- lx.pos + len; lx.tok <- tok
let two lx c tok_two tok_one = if at lx 1 c then set lx 2 tok_two else set lx 1 tok_one

let scan lx =
  let src = lx.src and i = lx.pos in
  match src.[i] with
  | '#' ->
    (* pragma line: "#pragma lp <rest-of-line>" *)
    let j = line_end src i in
    let rest = String.sub src i (j - i) in
    let prefix = "#pragma lp " in
    lx.pos <- j;
    if String.starts_with ~prefix rest then
      let plen = String.length prefix in
      lx.tok <- PRAGMA (String.trim (String.sub rest plen (String.length rest - plen)))
    else raise (Lex_error ("unknown directive: " ^ rest, lx.line))
  | '0' .. '9' ->
    let j = digits_end src i in
    if j < String.length src && src.[j] = '.' then begin
      let k = digits_end src (j + 1) in
      let frac = if k = j + 1 then "0" else String.sub src (j + 1) (k - j - 1) in
      lx.pos <- k;
      lx.tok <- FLOAT_LIT (float_of_string (String.sub src i (j - i) ^ "." ^ frac))
    end
    else begin
      lx.pos <- j;
      lx.tok <- INT_LIT (int_value lx j i 0)
    end
  | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
    let j = ident_end src i in
    lx.pos <- j;
    lx.tok <- ident_or_keyword (String.sub src i (j - i))
  | '(' -> set lx 1 LPAREN
  | ')' -> set lx 1 RPAREN
  | '{' -> set lx 1 LBRACE
  | '}' -> set lx 1 RBRACE
  | '[' -> set lx 1 LBRACKET
  | ']' -> set lx 1 RBRACKET
  | ';' -> set lx 1 SEMI
  | ',' -> set lx 1 COMMA
  | '+' -> set lx 1 PLUS
  | '-' -> set lx 1 MINUS
  | '*' -> set lx 1 STAR
  | '/' -> set lx 1 SLASH
  | '%' -> set lx 1 PERCENT
  | '^' -> set lx 1 CARET
  | '~' -> set lx 1 TILDE
  | '<' -> if at lx 1 '<' then set lx 2 SHL else two lx '=' LE LT
  | '>' -> if at lx 1 '>' then set lx 2 SHR else two lx '=' GE GT
  | '=' -> two lx '=' EQEQ ASSIGN
  | '!' -> two lx '=' NE BANG
  | '&' -> two lx '&' ANDAND AMP
  | '|' -> two lx '|' OROR PIPE
  | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, lx.line))

(** Advance to the next token ([EOF] once the input is exhausted). *)
let next lx =
  skip lx;
  if lx.pos < String.length lx.src then scan lx else lx.tok <- EOF

(** A lexer positioned on the first token of [src]. *)
let create src =
  let lx = { src; pos = 0; line = 1; bol = 0; tok = EOF } in
  next lx;
  lx

(** Every token of [src] with its position, [EOF] last (for tests; the
    parser pulls tokens with [next]). *)
let tokenize src =
  let lx = create src in
  let rec go acc =
    let acc = { tok = lx.tok; line = lx.line; col = col lx } :: acc in
    match lx.tok with EOF -> List.rev acc | _ -> next lx; go acc
  in
  go []
