//! MiniJS recursive-descent parser.

use crate::ast::*;
use crate::error::JsError;
use crate::lexer::{Tok, Token};

/// Parse a token stream into a [`Script`].
pub fn parse(tokens: Vec<Token>) -> Result<Script, JsError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut body = Vec::new();
    while !p.at(&Tok::Eof) {
        body.push(p.statement()?);
    }
    Ok(Script { body })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), JsError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(JsError::Parse {
                line: self.line(),
                message: format!("expected {what}, found {:?}", self.peek()),
            })
        }
    }

    fn ident(&mut self) -> Result<String, JsError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(JsError::Parse {
                line: self.line(),
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    // ---- statements ----------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, JsError> {
        match self.peek() {
            Tok::Var | Tok::Let | Tok::Const => {
                self.bump();
                let stmt = self.decl_tail()?;
                self.eat(&Tok::Semi);
                Ok(stmt)
            }
            Tok::Function => {
                self.bump();
                let name = self.ident()?;
                let (params, body) = self.func_rest()?;
                Ok(Stmt::Function { name, params, body })
            }
            Tok::Return => {
                self.bump();
                if self.eat(&Tok::Semi) || self.at(&Tok::RBrace) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expression()?;
                    self.eat(&Tok::Semi);
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "')'")?;
                let then = self.block_or_single()?;
                let els = if self.eat(&Tok::Else) {
                    self.block_or_single()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els))
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "')'")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While(cond, body))
            }
            Tok::Do => {
                self.bump();
                let body = self.block_or_single()?;
                self.expect(&Tok::While, "'while'")?;
                self.expect(&Tok::LParen, "'('")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "')'")?;
                self.eat(&Tok::Semi);
                Ok(Stmt::DoWhile(body, cond))
            }
            Tok::For => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else {
                    let s = if self.eat(&Tok::Var) || self.eat(&Tok::Let) || self.eat(&Tok::Const) {
                        self.decl_tail()?
                    } else {
                        Stmt::Expr(self.expression()?)
                    };
                    self.expect(&Tok::Semi, "';'")?;
                    Some(Box::new(s))
                };
                let cond = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&Tok::Semi, "';'")?;
                let step = if self.at(&Tok::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&Tok::RParen, "')'")?;
                let body = self.block_or_single()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Break => {
                self.bump();
                self.eat(&Tok::Semi);
                Ok(Stmt::Break)
            }
            Tok::Continue => {
                self.bump();
                self.eat(&Tok::Semi);
                Ok(Stmt::Continue)
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Block(Vec::new()))
            }
            _ => {
                let e = self.expression()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// `name = init, name2 = init2` — multi-declarator chains become a
    /// block of single declarations.
    fn decl_tail(&mut self) -> Result<Stmt, JsError> {
        let mut decls = Vec::new();
        loop {
            let name = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.assignment()?)
            } else {
                None
            };
            decls.push(Stmt::Decl(name, init));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        if decls.len() == 1 {
            Ok(decls.pop().expect("one decl"))
        } else {
            Ok(Stmt::Block(decls))
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, JsError> {
        self.expect(&Tok::LBrace, "'{'")?;
        let mut body = Vec::new();
        while !self.at(&Tok::RBrace) && !self.at(&Tok::Eof) {
            body.push(self.statement()?);
        }
        self.expect(&Tok::RBrace, "'}'")?;
        Ok(body)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, JsError> {
        if self.at(&Tok::LBrace) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn func_rest(&mut self) -> Result<(Vec<String>, Vec<Stmt>), JsError> {
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        let body = self.block()?;
        Ok((params, body))
    }

    // ---- expressions (precedence climbing) -----------------------------

    fn expression(&mut self) -> Result<Expr, JsError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, JsError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Mod),
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.bump();
        let target = expr_to_target(lhs).ok_or(JsError::Parse {
            line,
            message: "invalid assignment target".into(),
        })?;
        let value = self.assignment()?;
        Ok(Expr::Assign {
            target,
            op,
            value: Box::new(value),
        })
    }

    fn ternary(&mut self) -> Result<Expr, JsError> {
        let cond = self.logic_or()?;
        if self.eat(&Tok::Question) {
            let a = self.assignment()?;
            self.expect(&Tok::Colon, "':'")?;
            let b = self.assignment()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    fn logic_or(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.logic_and()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.logic_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn logic_and(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.bit_or()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.bit_or()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_or(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.bit_xor()?;
        while self.at(&Tok::BitOr) {
            self.bump();
            let rhs = self.bit_xor()?;
            lhs = Expr::Binary(BinOp::BitOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_xor(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.bit_and()?;
        while self.at(&Tok::BitXor) {
            self.bump();
            let rhs = self.bit_and()?;
            lhs = Expr::Binary(BinOp::BitXor, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_and(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.equality()?;
        while self.at(&Tok::BitAnd) {
            self.bump();
            let rhs = self.equality()?;
            lhs = Expr::Binary(BinOp::BitAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                Tok::EqEq => BinOp::EqEq,
                Tok::NotEq => BinOp::NotEq,
                Tok::EqEqEq => BinOp::StrictEq,
                Tok::NotEqEq => BinOp::StrictNotEq,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.relational()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn relational(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.shift()?;
        loop {
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Gt => BinOp::Gt,
                Tok::Le => BinOp::Le,
                Tok::Ge => BinOp::Ge,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.shift()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn shift(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Shl => BinOp::Shl,
                Tok::Shr => BinOp::Shr,
                Tok::UShr => BinOp::UShr,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn additive(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, JsError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<Expr, JsError> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)))
            }
            Tok::BitNot => {
                self.bump();
                Ok(Expr::Unary(UnOp::BitNot, Box::new(self.unary()?)))
            }
            Tok::Typeof => {
                self.bump();
                Ok(Expr::Unary(UnOp::Typeof, Box::new(self.unary()?)))
            }
            Tok::Plus => {
                self.bump();
                self.unary()
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let delta = if self.bump() == Tok::PlusPlus {
                    1.0
                } else {
                    -1.0
                };
                let line = self.line();
                let e = self.unary()?;
                let target = expr_to_target(e).ok_or(JsError::Parse {
                    line,
                    message: "invalid ++/-- target".into(),
                })?;
                Ok(Expr::IncDec { target, delta })
            }
            Tok::New => {
                self.bump();
                let line = self.line();
                let name = self.ident()?;
                self.expect(&Tok::LParen, "'('")?;
                let arg = if self.at(&Tok::RParen) {
                    Expr::Num(0.0)
                } else {
                    self.expression()?
                };
                self.expect(&Tok::RParen, "')'")?;
                match name.as_str() {
                    "Float64Array" => Ok(Expr::NewTyped(TypedKind::F64, Box::new(arg))),
                    "Int32Array" => Ok(Expr::NewTyped(TypedKind::I32, Box::new(arg))),
                    "Uint8Array" => Ok(Expr::NewTyped(TypedKind::U8, Box::new(arg))),
                    "Array" => Ok(Expr::NewArray(Box::new(arg))),
                    other => Err(JsError::Parse {
                        line,
                        message: format!("unsupported constructor 'new {other}'"),
                    }),
                }
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, JsError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let args = self.args()?;
                    e = match e {
                        Expr::Member(obj, name) => Expr::MethodCall(obj, name, args),
                        other => Expr::Call(Box::new(other), args),
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expression()?;
                    self.expect(&Tok::RBracket, "']'")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Tok::Dot => {
                    self.bump();
                    let name = self.ident()?;
                    e = Expr::Member(Box::new(e), name);
                }
                Tok::PlusPlus | Tok::MinusMinus => {
                    let delta = if self.bump() == Tok::PlusPlus {
                        1.0
                    } else {
                        -1.0
                    };
                    let line = self.line();
                    let target = expr_to_target(e).ok_or(JsError::Parse {
                        line,
                        message: "invalid ++/-- target".into(),
                    })?;
                    e = Expr::IncDec { target, delta };
                }
                _ => return Ok(e),
            }
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, JsError> {
        let mut args = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                args.push(self.assignment()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, JsError> {
        let line = self.line();
        match self.bump() {
            Tok::Num(v) => Ok(Expr::Num(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::Undefined => Ok(Expr::Undefined),
            Tok::Ident(s) => Ok(Expr::Name(s)),
            Tok::LParen => {
                let e = self.expression()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                if !self.at(&Tok::RBracket) {
                    loop {
                        items.push(self.assignment()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "']'")?;
                Ok(Expr::Array(items))
            }
            Tok::LBrace => {
                let mut fields = Vec::new();
                if !self.at(&Tok::RBrace) {
                    loop {
                        let key = match self.bump() {
                            Tok::Ident(s) => s,
                            Tok::Str(s) => s,
                            other => {
                                return Err(JsError::Parse {
                                    line,
                                    message: format!("bad object key {other:?}"),
                                })
                            }
                        };
                        self.expect(&Tok::Colon, "':'")?;
                        fields.push((key, self.assignment()?));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "'}'")?;
                Ok(Expr::Object(fields))
            }
            Tok::Function => {
                let (params, body) = self.func_rest()?;
                Ok(Expr::Function { params, body })
            }
            other => Err(JsError::Parse {
                line,
                message: format!("unexpected token {other:?}"),
            }),
        }
    }
}

fn expr_to_target(e: Expr) -> Option<Target> {
    match e {
        Expr::Name(n) => Some(Target::Name(n)),
        Expr::Index(obj, idx) => Some(Target::Index(obj, idx)),
        Expr::Member(obj, name) => Some(Target::Member(obj, name)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn p(src: &str) -> Script {
        parse(lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_declarations_and_functions() {
        let s = p("var x = 1; function f(a, b) { return a + b; }");
        assert_eq!(s.body.len(), 2);
        assert!(matches!(&s.body[0], Stmt::Decl(n, Some(Expr::Num(v))) if n == "x" && *v == 1.0));
        assert!(matches!(&s.body[1], Stmt::Function { name, params, .. }
            if name == "f" && params.len() == 2));
    }

    #[test]
    fn precedence_is_right() {
        let s = p("r = 1 + 2 * 3 < 4 << 1 && true;");
        // ((1 + (2*3)) < (4<<1)) && true
        match &s.body[0] {
            Stmt::Expr(Expr::Assign { value, .. }) => match value.as_ref() {
                Expr::And(lhs, _) => match lhs.as_ref() {
                    Expr::Binary(BinOp::Lt, l, r) => {
                        assert!(matches!(l.as_ref(), Expr::Binary(BinOp::Add, ..)));
                        assert!(matches!(r.as_ref(), Expr::Binary(BinOp::Shl, ..)));
                    }
                    other => panic!("expected Lt, got {other:?}"),
                },
                other => panic!("expected And, got {other:?}"),
            },
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop_with_inc() {
        let s = p("for (var i = 0; i < 10; i++) { total += i; }");
        match &s.body[0] {
            Stmt::For {
                init: Some(_),
                cond: Some(_),
                step: Some(Expr::IncDec { .. }),
                body,
            } => assert_eq!(body.len(), 1),
            other => panic!("bad for: {other:?}"),
        }
    }

    #[test]
    fn parses_member_chains_and_calls() {
        let s = p("y = Math.sqrt(a[i].v + obj.fn(1, 2));");
        match &s.body[0] {
            Stmt::Expr(Expr::Assign { value, .. }) => {
                assert!(matches!(value.as_ref(), Expr::MethodCall(_, name, args)
                    if name == "sqrt" && args.len() == 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_typed_array_constructors() {
        let s = p("var a = new Float64Array(n * n);");
        assert!(matches!(
            &s.body[0],
            Stmt::Decl(_, Some(Expr::NewTyped(TypedKind::F64, _)))
        ));
        assert!(parse(lex("var x = new Foo(1);").unwrap()).is_err());
    }

    #[test]
    fn parses_object_and_array_literals() {
        let s = p("var m = { rows: 2, data: [1, 2, 3] };");
        match &s.body[0] {
            Stmt::Decl(_, Some(Expr::Object(fields))) => {
                assert_eq!(fields.len(), 2);
                assert!(matches!(&fields[1].1, Expr::Array(v) if v.len() == 3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_function_expressions() {
        let s = p("var f = function (x) { return x * 2; };");
        assert!(
            matches!(&s.body[0], Stmt::Decl(_, Some(Expr::Function { params, .. }))
            if params.len() == 1)
        );
    }

    #[test]
    fn parses_ternary_and_logical() {
        let s = p("v = a > b ? a : b || c;");
        assert!(matches!(&s.body[0], Stmt::Expr(Expr::Assign { value, .. })
            if matches!(value.as_ref(), Expr::Ternary(..))));
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(matches!(
            parse(lex("1 = 2;").unwrap()),
            Err(JsError::Parse { .. })
        ));
    }

    #[test]
    fn multi_declarator_becomes_block() {
        let s = p("var a = 1, b = 2;");
        assert!(matches!(&s.body[0], Stmt::Block(v) if v.len() == 2));
    }
}
