//! Lexer and recursive-descent parser for MCPL.
//!
//! The grammar follows the paper's Fig. 3 closely:
//!
//! ```text
//! perfect void matmul(int n, int m, int p,
//!     float[n,m] c, float[n,p] a, float[p,m] b) {
//!   foreach (int i in n threads) {
//!     foreach (int j in m threads) {
//!       float sum = 0.0;
//!       for (int k = 0; k < p; k++) {
//!         sum += a[i,k] * b[k,j];
//!       }
//!       c[i,j] += sum;
//!     }
//!   }
//! }
//! ```
//!
//! A source file contains exactly one kernel. The leading identifier names
//! the hardware-description level the kernel is written for.

use crate::ast::*;
use std::fmt;

/// Parse error with 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MCPL parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    // operators
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    AndAnd,
    OrOr,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
}

struct Lexed {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<Lexed>, ParseError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = bytes.len();
    macro_rules! push {
        ($t:expr) => {
            out.push(Lexed { tok: $t, line })
        };
    }
    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                i += 2;
                while i + 1 < n && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= n {
                    return Err(ParseError {
                        line,
                        message: "unterminated block comment".into(),
                    });
                }
                i += 2;
            }
            '(' => {
                push!(Tok::LParen);
                i += 1;
            }
            ')' => {
                push!(Tok::RParen);
                i += 1;
            }
            '{' => {
                push!(Tok::LBrace);
                i += 1;
            }
            '}' => {
                push!(Tok::RBrace);
                i += 1;
            }
            '[' => {
                push!(Tok::LBracket);
                i += 1;
            }
            ']' => {
                push!(Tok::RBracket);
                i += 1;
            }
            ',' => {
                push!(Tok::Comma);
                i += 1;
            }
            ';' => {
                push!(Tok::Semi);
                i += 1;
            }
            '~' => {
                push!(Tok::Tilde);
                i += 1;
            }
            '^' => {
                push!(Tok::Caret);
                i += 1;
            }
            '%' => {
                push!(Tok::Percent);
                i += 1;
            }
            '+' => {
                if i + 1 < n && bytes[i + 1] == '+' {
                    push!(Tok::PlusPlus);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::PlusAssign);
                    i += 2;
                } else {
                    push!(Tok::Plus);
                    i += 1;
                }
            }
            '-' => {
                if i + 1 < n && bytes[i + 1] == '-' {
                    push!(Tok::MinusMinus);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::MinusAssign);
                    i += 2;
                } else {
                    push!(Tok::Minus);
                    i += 1;
                }
            }
            '*' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::StarAssign);
                    i += 2;
                } else {
                    push!(Tok::Star);
                    i += 1;
                }
            }
            '/' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::SlashAssign);
                    i += 2;
                } else {
                    push!(Tok::Slash);
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < n && bytes[i + 1] == '&' {
                    push!(Tok::AndAnd);
                    i += 2;
                } else {
                    push!(Tok::Amp);
                    i += 1;
                }
            }
            '|' => {
                if i + 1 < n && bytes[i + 1] == '|' {
                    push!(Tok::OrOr);
                    i += 2;
                } else {
                    push!(Tok::Pipe);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == '<' {
                    push!(Tok::Shl);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::Le);
                    i += 2;
                } else {
                    push!(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == '>' {
                    push!(Tok::Shr);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::Ge);
                    i += 2;
                } else {
                    push!(Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::EqEq);
                    i += 2;
                } else {
                    push!(Tok::Assign);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push!(Tok::NotEq);
                    i += 2;
                } else {
                    push!(Tok::Bang);
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < n && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                    i += 1;
                }
                if i < n && bytes[i] == '.' && i + 1 < n && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < n && (bytes[i] == 'e' || bytes[i] == 'E') {
                    is_float = true;
                    i += 1;
                    if i < n && (bytes[i] == '+' || bytes[i] == '-') {
                        i += 1;
                    }
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // trailing f suffix as in C float literals
                let text: String = bytes[start..i].iter().filter(|c| **c != '_').collect();
                if i < n && bytes[i] == 'f' {
                    is_float = true;
                    i += 1;
                }
                if is_float {
                    let v: f64 = text.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad float literal `{text}`"),
                    })?;
                    push!(Tok::Float(v));
                } else {
                    let v: i64 = text.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad int literal `{text}`"),
                    })?;
                    push!(Tok::Int(v));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                push!(Tok::Ident(bytes[start..i].iter().collect()));
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

/// Deepest nesting the parser accepts: blocks, `else if` chains,
/// parenthesized sub-expressions and expression-tree height alike. Deeper
/// input is a [`ParseError`] rather than a stack overflow, here or in the
/// passes that later walk the tree recursively.
const MAX_DEPTH: usize = 256;

struct Parser {
    toks: Vec<Lexed>,
    pos: usize,
    /// Nested constructs currently being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|l| &l.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|l| &l.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |l| l.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH}"))
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Height of an expression node whose tallest child is `child` high.
    fn node_height(&self, child: usize) -> Result<usize, ParseError> {
        if child >= MAX_DEPTH {
            Err(self.too_deep())
        } else {
            Ok(child + 1)
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|l| l.tok.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, got {got:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn elem_ty(&mut self) -> Result<ElemTy, ParseError> {
        let id = self.expect_ident()?;
        match id.as_str() {
            "int" => Ok(ElemTy::Int),
            "float" => Ok(ElemTy::Float),
            other => Err(self.err(format!("expected type (int/float), got `{other}`"))),
        }
    }

    fn is_type_ident(t: Option<&Tok>) -> bool {
        matches!(t, Some(Tok::Ident(s)) if s == "int" || s == "float" || s == "local")
    }

    // kernel := ident("level") "void" ident "(" params ")" block
    fn kernel(&mut self) -> Result<Kernel, ParseError> {
        let level = self.expect_ident()?;
        let ret = self.expect_ident()?;
        if ret != "void" {
            return Err(self.err(format!("kernels return void, got `{ret}`")));
        }
        let name = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        if self.peek().is_some() {
            return Err(self.err("trailing tokens after kernel body"));
        }
        Ok(Kernel {
            level,
            name,
            params,
            body,
        })
    }

    // param := ty ident | ty "[" expr,* "]" ident
    fn param(&mut self) -> Result<Param, ParseError> {
        let elem = self.elem_ty()?;
        let mut dims = Vec::new();
        if self.eat(&Tok::LBracket) {
            loop {
                dims.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        let name = self.expect_ident()?;
        Ok(Param { name, elem, dims })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::LBrace)?;
        let stmts = self.nested(|p| {
            let mut stmts = Vec::new();
            while p.peek() != Some(&Tok::RBrace) {
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })?;
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek() {
            Some(Tok::Ident(id)) => match id.as_str() {
                "if" => self.if_stmt(),
                "for" => self.for_stmt(),
                "foreach" => self.foreach_stmt(),
                "barrier" => {
                    self.next()?;
                    self.expect(Tok::LParen)?;
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::new(line, StmtKind::Barrier))
                }
                "local" | "int" | "float" => self.decl_stmt(),
                _ => {
                    let s = self.assign_stmt()?;
                    self.expect(Tok::Semi)?;
                    Ok(s)
                }
            },
            _ => Err(self.err("expected statement")),
        }
    }

    // decl := ("local")? ty ident ("=" expr)? ";"
    //       | ("local")? ty ident "[" expr,* "]" ";"
    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let mut space = Space::Private;
        if let Some(Tok::Ident(id)) = self.peek() {
            if id == "local" {
                self.next()?;
                space = Space::Local;
            }
        }
        let ty = self.elem_ty()?;
        let name = self.expect_ident()?;
        if self.eat(&Tok::LBracket) {
            let mut dims = Vec::new();
            loop {
                dims.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
            self.expect(Tok::Semi)?;
            Ok(Stmt::new(
                line,
                StmtKind::DeclArray {
                    space,
                    ty,
                    name,
                    dims,
                },
            ))
        } else {
            if space == Space::Local {
                return Err(self.err("`local` requires an array declaration"));
            }
            let init = if self.eat(&Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(Tok::Semi)?;
            Ok(Stmt::new(line, StmtKind::DeclScalar { ty, name, init }))
        }
    }

    // assignment or ++/--, without the trailing semicolon (shared with `for`)
    fn assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let name = self.expect_ident()?;
        let mut indices = Vec::new();
        if self.eat(&Tok::LBracket) {
            loop {
                indices.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        let target = LValue {
            name: name.clone(),
            indices,
        };
        let tok = self.next()?;
        let (op, value) = match tok {
            Tok::Assign => (AssignOp::Set, self.expr()?),
            Tok::PlusAssign => (AssignOp::Add, self.expr()?),
            Tok::MinusAssign => (AssignOp::Sub, self.expr()?),
            Tok::StarAssign => (AssignOp::Mul, self.expr()?),
            Tok::SlashAssign => (AssignOp::Div, self.expr()?),
            Tok::PlusPlus => (AssignOp::Add, Expr::IntLit(1)),
            Tok::MinusMinus => (AssignOp::Sub, Expr::IntLit(1)),
            other => return Err(self.err(format!("expected assignment operator, got {other:?}"))),
        };
        Ok(Stmt::new(line, StmtKind::Assign { target, op, value }))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        self.next()?; // if
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_branch = self.block()?;
        let else_branch = if let Some(Tok::Ident(id)) = self.peek() {
            if id == "else" {
                self.next()?;
                if let Some(Tok::Ident(id2)) = self.peek() {
                    if id2 == "if" {
                        vec![self.nested(Self::if_stmt)?]
                    } else {
                        self.block()?
                    }
                } else {
                    self.block()?
                }
            } else {
                vec![]
            }
        } else {
            vec![]
        };
        Ok(Stmt::new(
            line,
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
        ))
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        self.next()?; // for
        self.expect(Tok::LParen)?;
        let init = if self.peek() == Some(&Tok::Semi) {
            self.next()?;
            None
        } else if Self::is_type_ident(self.peek()) {
            let d = self.decl_stmt()?; // consumes the `;`
            Some(Box::new(d))
        } else {
            let s = self.assign_stmt()?;
            self.expect(Tok::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.peek() == Some(&Tok::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        let step = if self.peek() == Some(&Tok::RParen) {
            None
        } else {
            Some(Box::new(self.assign_stmt()?))
        };
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(Stmt::new(
            line,
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
        ))
    }

    // foreach := "foreach" "(" "int" ident "in" expr ident ")" block
    fn foreach_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        self.next()?; // foreach
        self.expect(Tok::LParen)?;
        let ty = self.expect_ident()?;
        if ty != "int" {
            return Err(self.err("foreach variable must be int"));
        }
        let var = self.expect_ident()?;
        let kw = self.expect_ident()?;
        if kw != "in" {
            return Err(self.err(format!("expected `in`, got `{kw}`")));
        }
        let count = self.expr()?;
        let unit = self.expect_ident()?;
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(Stmt::new(
            line,
            StmtKind::Foreach {
                var,
                count,
                unit,
                body,
            },
        ))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.sub_expr().map(|(e, _)| e)
    }

    // Expression productions also return the tree height of what they
    // built: an operator chain is folded by a loop, not by recursion, so
    // only its height bounds how deep the tree gets.
    fn sub_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        self.nested(|p| p.bin_expr(0))
    }

    // Pratt-style precedence climbing.
    fn bin_expr(&mut self, min_prec: u8) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::OrOr) => (BinOp::Or, 1),
                Some(Tok::AndAnd) => (BinOp::And, 2),
                Some(Tok::Pipe) => (BinOp::BitOr, 3),
                Some(Tok::Caret) => (BinOp::BitXor, 4),
                Some(Tok::Amp) => (BinOp::BitAnd, 5),
                Some(Tok::EqEq) => (BinOp::Eq, 6),
                Some(Tok::NotEq) => (BinOp::Ne, 6),
                Some(Tok::Lt) => (BinOp::Lt, 7),
                Some(Tok::Le) => (BinOp::Le, 7),
                Some(Tok::Gt) => (BinOp::Gt, 7),
                Some(Tok::Ge) => (BinOp::Ge, 7),
                Some(Tok::Shl) => (BinOp::Shl, 8),
                Some(Tok::Shr) => (BinOp::Shr, 8),
                Some(Tok::Plus) => (BinOp::Add, 9),
                Some(Tok::Minus) => (BinOp::Sub, 9),
                Some(Tok::Star) => (BinOp::Mul, 10),
                Some(Tok::Slash) => (BinOp::Div, 10),
                Some(Tok::Percent) => (BinOp::Mod, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.next()?;
            let (rhs, rhs_height) = self.bin_expr(prec + 1)?;
            height = self.node_height(height.max(rhs_height))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, height))
    }

    /// A prefix operator's operand, with the height of the node over it.
    fn operand(&mut self) -> Result<(Box<Expr>, usize), ParseError> {
        let (e, h) = self.nested(Self::unary)?;
        Ok((Box::new(e), self.node_height(h)?))
    }

    fn unary(&mut self) -> Result<(Expr, usize), ParseError> {
        let op = match self.peek() {
            Some(Tok::Minus) => UnOp::Neg,
            Some(Tok::Bang) => UnOp::Not,
            Some(Tok::Tilde) => UnOp::BitNot,
            // cast: "(" ("int"|"float") ")" unary
            Some(Tok::LParen) if matches!(self.peek2(), Some(Tok::Ident(s)) if s=="int"||s=="float") =>
            {
                // Look ahead for the closing paren to distinguish a cast from
                // a parenthesized variable named `int` (impossible — keyword),
                // so this is unambiguous.
                self.next()?;
                let to = self.elem_ty()?;
                self.expect(Tok::RParen)?;
                let (operand, height) = self.operand()?;
                return Ok((Expr::Cast { to, operand }, height));
            }
            _ => return self.postfix(),
        };
        self.next()?;
        let (operand, height) = self.operand()?;
        Ok((Expr::Unary { op, operand }, height))
    }

    /// A non-empty comma-separated expression list, with the height of the
    /// node over it.
    fn expr_list(&mut self) -> Result<(Vec<Expr>, usize), ParseError> {
        let mut items = Vec::new();
        let mut height = 0;
        loop {
            let (e, h) = self.sub_expr()?;
            items.push(e);
            height = height.max(h);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok((items, self.node_height(height)?))
    }

    fn postfix(&mut self) -> Result<(Expr, usize), ParseError> {
        match self.next()? {
            Tok::Int(v) => Ok((Expr::IntLit(v), 1)),
            Tok::Float(v) => Ok((Expr::FloatLit(v), 1)),
            Tok::LParen => {
                let e = self.sub_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    let (args, height) = if self.peek() == Some(&Tok::RParen) {
                        (Vec::new(), 1)
                    } else {
                        self.expr_list()?
                    };
                    self.expect(Tok::RParen)?;
                    Ok((Expr::Call { name, args }, height))
                } else if self.eat(&Tok::LBracket) {
                    let (indices, height) = self.expr_list()?;
                    self.expect(Tok::RBracket)?;
                    Ok((
                        Expr::Index {
                            array: name,
                            indices,
                        },
                        height,
                    ))
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => Err(self.err(format!("expected expression, got {other:?}"))),
        }
    }
}

/// Parse one MCPL kernel from source text.
pub fn parse(src: &str) -> Result<Kernel, ParseError> {
    let toks = lex(src)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
    }
    .kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3 kernel, verbatim modulo formatting.
    pub const FIG3: &str = "\
perfect void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}";

    #[test]
    fn parses_fig3() {
        let k = parse(FIG3).unwrap();
        assert_eq!(k.level, "perfect");
        assert_eq!(k.name, "matmul");
        assert_eq!(k.params.len(), 6);
        assert!(k.params[3].is_array());
        assert_eq!(k.params[3].dims.len(), 2);
        assert_eq!(foreach_units(&k), vec!["threads"]);
        // outer foreach over i, inner over j, then decl/for/assign
        match &k.body[0].kind {
            StmtKind::Foreach {
                var, unit, body, ..
            } => {
                assert_eq!(var, "i");
                assert_eq!(unit, "threads");
                match &body[0].kind {
                    StmtKind::Foreach { var, body, .. } => {
                        assert_eq!(var, "j");
                        assert_eq!(body.len(), 3);
                    }
                    other => panic!("expected inner foreach, got {other:?}"),
                }
            }
            other => panic!("expected foreach, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_with_plusplus_and_compound_assign() {
        let k = parse(FIG3).unwrap();
        // dig to the for statement
        let StmtKind::Foreach { body, .. } = &k.body[0].kind else {
            panic!()
        };
        let StmtKind::Foreach { body, .. } = &body[0].kind else {
            panic!()
        };
        let StmtKind::For {
            init, cond, step, ..
        } = &body[1].kind
        else {
            panic!("expected for")
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        let StmtKind::Assign { op, .. } = &step.as_ref().unwrap().kind else {
            panic!()
        };
        assert_eq!(*op, AssignOp::Add, "k++ desugars to k += 1");
    }

    #[test]
    fn parses_local_arrays_and_barrier() {
        let src = "
gpu void t(int n, float[n] a) {
  foreach (int b in n / 256 blocks) {
    local float tile[256];
    foreach (int t in 256 threads) {
      tile[t] = a[b * 256 + t];
      barrier();
      a[b * 256 + t] = tile[255 - t];
    }
  }
}";
        let k = parse(src).unwrap();
        assert_eq!(k.level, "gpu");
        let StmtKind::Foreach { body, .. } = &k.body[0].kind else {
            panic!()
        };
        let StmtKind::DeclArray { space, dims, .. } = &body[0].kind else {
            panic!("expected local decl, got {:?}", body[0].kind)
        };
        assert_eq!(*space, Space::Local);
        assert_eq!(dims.len(), 1);
        let StmtKind::Foreach { body: tb, .. } = &body[1].kind else {
            panic!()
        };
        assert!(matches!(tb[1].kind, StmtKind::Barrier));
    }

    #[test]
    fn precedence_mul_over_add_over_cmp() {
        let k = parse("perfect void t(int n, float[n] a) { foreach (int i in n threads) { if (i + 2 * 3 < n) { a[i] = 1.0; } } }").unwrap();
        let StmtKind::Foreach { body, .. } = &k.body[0].kind else {
            panic!()
        };
        let StmtKind::If { cond, .. } = &body[0].kind else {
            panic!()
        };
        // (i + (2*3)) < n
        let Expr::Binary {
            op: BinOp::Lt, lhs, ..
        } = cond
        else {
            panic!("expected <, got {cond:?}")
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = lhs.as_ref()
        else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_casts_and_bit_ops() {
        let src = "perfect void t(int n, int[n] s) {
  foreach (int i in n threads) {
    int x = s[i];
    x = x ^ (x << 13);
    x = x ^ (x >> 7);
    float f = (float) (x & 8388607) / 8388608.0;
    s[i] = (int) (f * 2.0);
  }
}";
        let k = parse(src).unwrap();
        assert_eq!(k.name, "t");
    }

    #[test]
    fn parses_else_if_chain() {
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    if (i < 1) { a[i] = 0.0; }
    else if (i < 2) { a[i] = 1.0; }
    else { a[i] = 2.0; }
  }
}";
        let k = parse(src).unwrap();
        let StmtKind::Foreach { body, .. } = &k.body[0].kind else {
            panic!()
        };
        let StmtKind::If { else_branch, .. } = &body[0].kind else {
            panic!()
        };
        assert!(matches!(else_branch[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn error_reports_line() {
        let err = parse("perfect void t(int n) {\n  bogus bogus bogus;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_non_void_return() {
        assert!(parse("perfect int t() { }").is_err());
    }

    #[test]
    fn error_local_scalar() {
        let err = parse("gpu void t(int n) { local float x; }").unwrap_err();
        assert!(err.message.contains("array"), "{err}");
    }

    #[test]
    fn error_unterminated_comment() {
        assert!(parse("perfect void t() { /* oops ").is_err());
    }

    /// A kernel whose single statement assigns `expr` to `a[0]`.
    fn with_expr(expr: &str) -> String {
        format!("perfect void t(int n, float[n] a) {{ a[0] = {expr}; }}")
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let n = 200_000;
        let parens = with_expr(&format!("{}1{}", "(".repeat(n), ")".repeat(n)));
        let err = parse(&parens).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        // Unary prefixes recurse; long operator chains and `else if`
        // chains build deep trees without recursing.
        assert!(parse(&with_expr(&format!("{}1", "-".repeat(n)))).is_err());
        assert!(parse(&with_expr(&vec!["1"; n].join(" + "))).is_err());
        assert!(parse(&with_expr(&format!("{}1{}", "f(".repeat(n), ")".repeat(n)))).is_err());
        let blocks = format!(
            "perfect void t(int n) {{ {} }}",
            "if (n > 0) {".repeat(n) + &"}".repeat(n)
        );
        assert!(parse(&blocks).is_err());
        let chain = format!(
            "perfect void t(int n, float[n] a) {{ if (n > 0) {{ }}{} }}",
            " else if (n > 0) { }".repeat(n)
        );
        assert!(parse(&chain).is_err());
    }

    #[test]
    fn nesting_below_the_limit_parses() {
        let depth = MAX_DEPTH - 8;
        let parens = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&with_expr(&parens)).is_ok());
        assert!(parse(&with_expr(&vec!["1"; depth].join(" + "))).is_ok());
    }

    #[test]
    fn float_literal_forms() {
        let k =
            parse("perfect void t(int n, float[n] a) { foreach (int i in n threads) { a[i] = 1.5e-3f + 2.0 + 3f; } }");
        assert!(k.is_ok(), "{k:?}");
    }
}
