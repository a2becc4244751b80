//! HDL — the textual Hardware Description Language.
//!
//! MCL defines hardware in a dedicated language; this module implements a
//! lexer and recursive-descent parser for it. A description looks like:
//!
//! ```text
//! // The idealized root level.
//! hardware perfect {
//!     parallelism { unit threads; }
//!     memory { space global; }
//!     device { flops_per_lane_per_cycle 2; }
//! }
//!
//! hardware gpu extends perfect {
//!     parallelism {
//!         unit blocks;
//!         unit threads max 1024;
//!     }
//!     memory {
//!         space global latency_cycles 400;
//!         space local size_kb 48 latency_cycles 4;
//!     }
//!     device { pcie_gbs 8.0; pcie_latency_us 10; }
//! }
//! ```
//!
//! `hardware X extends Y { … }` adds level `X` below `Y`; the first block in
//! a file is the root and takes no `extends`. Section order inside a block is
//! free and every section is optional.

use crate::hierarchy::Hierarchy;
use crate::params::{HwParams, MemSpace, ParUnit};
use std::fmt;

/// Parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdlError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for HdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HDL parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for HdlError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    LBrace,
    RBrace,
    Semi,
}

#[derive(Debug, Clone)]
struct Lexed {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<Lexed>, HdlError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    return Err(HdlError {
                        line,
                        message: "stray `/` (expected `//` comment)".into(),
                    });
                }
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                out.push(Lexed {
                    tok: Tok::LBrace,
                    line,
                });
                chars.next();
            }
            '}' => {
                out.push(Lexed {
                    tok: Tok::RBrace,
                    line,
                });
                chars.next();
            }
            ';' => {
                out.push(Lexed {
                    tok: Tok::Semi,
                    line,
                });
                chars.next();
            }
            c if c.is_ascii_digit() || c == '.' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: f64 = s.replace('_', "").parse().map_err(|_| HdlError {
                    line,
                    message: format!("bad number `{s}`"),
                })?;
                out.push(Lexed {
                    tok: Tok::Number(v),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Lexed {
                    tok: Tok::Ident(s),
                    line,
                });
            }
            other => {
                return Err(HdlError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Lexed>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|l| &l.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |l| l.line)
    }

    fn err(&self, msg: impl Into<String>) -> HdlError {
        HdlError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn next(&mut self) -> Result<Tok, HdlError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|l| l.tok.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_ident(&mut self) -> Result<String, HdlError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), HdlError> {
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, got `{id}`")))
        }
    }

    fn expect_number(&mut self) -> Result<f64, HdlError> {
        match self.next()? {
            Tok::Number(v) => Ok(v),
            other => Err(self.err(format!("expected number, got {other:?}"))),
        }
    }

    /// A unit's `max`: a positive integer that fits in a `u32`.
    fn expect_max(&mut self) -> Result<u64, HdlError> {
        let v = self.expect_number()?;
        if v >= 1.0 && v <= f64::from(u32::MAX) && v.fract() == 0.0 {
            Ok(v as u64)
        } else {
            Err(self.err(format!(
                "unit `max` must be a positive integer below 2^32, got {v}"
            )))
        }
    }

    fn expect_tok(&mut self, want: Tok) -> Result<(), HdlError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, got {got:?}")))
        }
    }

    fn parse_file(&mut self) -> Result<Hierarchy, HdlError> {
        let mut h = Hierarchy::new();
        while self.peek().is_some() {
            self.expect_keyword("hardware")?;
            let name = self.expect_ident()?;
            let parent = if let Some(Tok::Ident(id)) = self.peek() {
                if id == "extends" {
                    self.next()?;
                    Some(self.expect_ident()?)
                } else {
                    return Err(self.err(format!("expected `extends` or `{{`, got `{id}`")));
                }
            } else {
                None
            };
            let params = self.parse_block()?;
            h.add_level(&name, parent.as_deref(), params)
                .map_err(|e| self.err(e))?;
        }
        if h.is_empty() {
            return Err(HdlError {
                line: 0,
                message: "empty HDL source".into(),
            });
        }
        Ok(h)
    }

    /// One level's `{ section… }`. Sections hold flat statements, so the
    /// parser never recurses and nesting depth cannot exhaust the stack.
    fn parse_block(&mut self) -> Result<HwParams, HdlError> {
        self.expect_tok(Tok::LBrace)?;
        let mut params = HwParams::default();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.next()?;
                    return Ok(params);
                }
                Some(Tok::Ident(section)) => {
                    let section = section.clone();
                    self.next()?;
                    match section.as_str() {
                        "parallelism" => self.parse_parallelism(&mut params)?,
                        "memory" => self.parse_memory(&mut params)?,
                        "device" => self.parse_device(&mut params)?,
                        other => {
                            return Err(self.err(format!(
                                "unknown section `{other}` (expected parallelism/memory/device)"
                            )))
                        }
                    }
                }
                Some(_) => return Err(self.err("expected section or `}`")),
                None => return Err(self.err("unexpected end of input in a block")),
            }
        }
    }

    fn parse_parallelism(&mut self, params: &mut HwParams) -> Result<(), HdlError> {
        self.expect_tok(Tok::LBrace)?;
        while self.peek() != Some(&Tok::RBrace) {
            self.expect_keyword("unit")?;
            let name = self.expect_ident()?;
            let mut max = None;
            if let Some(Tok::Ident(id)) = self.peek() {
                if id == "max" {
                    self.next()?;
                    max = Some(self.expect_max()?);
                }
            }
            self.expect_tok(Tok::Semi)?;
            params.par_units.push(ParUnit { name, max });
        }
        self.expect_tok(Tok::RBrace)
    }

    fn parse_memory(&mut self, params: &mut HwParams) -> Result<(), HdlError> {
        self.expect_tok(Tok::LBrace)?;
        while self.peek() != Some(&Tok::RBrace) {
            self.expect_keyword("space")?;
            let name = self.expect_ident()?;
            let mut space = MemSpace {
                name,
                bandwidth_gbs: None,
                latency_cycles: None,
                size_kb: None,
            };
            while let Some(Tok::Ident(attr)) = self.peek() {
                let attr = attr.clone();
                self.next()?;
                let v = self.expect_number()?;
                match attr.as_str() {
                    "bandwidth_gbs" => space.bandwidth_gbs = Some(v),
                    "latency_cycles" => space.latency_cycles = Some(v as u64),
                    "size_kb" => space.size_kb = Some(v as u64),
                    other => return Err(self.err(format!("unknown memory attribute `{other}`"))),
                }
            }
            self.expect_tok(Tok::Semi)?;
            params.mem_spaces.push(space);
        }
        self.expect_tok(Tok::RBrace)
    }

    fn parse_device(&mut self, params: &mut HwParams) -> Result<(), HdlError> {
        self.expect_tok(Tok::LBrace)?;
        while self.peek() != Some(&Tok::RBrace) {
            let key = self.expect_ident()?;
            let v = self.expect_number()?;
            self.expect_tok(Tok::Semi)?;
            match key.as_str() {
                "compute_units" => params.compute_units = Some(v as u32),
                "simd_width" => params.simd_width = Some(v as u32),
                "clock_ghz" => params.clock_ghz = Some(v),
                "flops_per_lane_per_cycle" => params.flops_per_lane_per_cycle = Some(v),
                "mem_bandwidth_gbs" => params.mem_bandwidth_gbs = Some(v),
                "shared_mem_kb" => params.shared_mem_kb = Some(v as u64),
                "pcie_gbs" => params.pcie_gbs = Some(v),
                "pcie_latency_us" => params.pcie_latency_us = Some(v),
                "relative_speed" => params.relative_speed = Some(v),
                "max_threads_per_unit" => params.max_threads_per_unit = Some(v as u32),
                other => return Err(self.err(format!("unknown device parameter `{other}`"))),
            }
        }
        self.expect_tok(Tok::RBrace)
    }
}

/// Parse an HDL source file into a [`Hierarchy`].
pub fn parse(src: &str) -> Result<Hierarchy, HdlError> {
    let toks = lex(src)?;
    Parser { toks, pos: 0 }.parse_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
        // root
        hardware perfect {
            parallelism { unit threads; }
            memory { space global; }
            device { flops_per_lane_per_cycle 2; }
        }
        hardware gpu extends perfect {
            parallelism {
                unit blocks;
                unit threads max 1024;
            }
            memory {
                space global latency_cycles 400;
                space local size_kb 48 latency_cycles 4;
            }
            device { pcie_gbs 8.0; pcie_latency_us 10; }
        }
        hardware gtx480 extends gpu {
            device {
                compute_units 15;
                simd_width 32;
                clock_ghz 1.401;
                mem_bandwidth_gbs 177.4;
                shared_mem_kb 48;
                relative_speed 20;
                max_threads_per_unit 1536;
            }
        }
    "#;

    #[test]
    fn parses_small_hierarchy() {
        let h = parse(SMALL).unwrap();
        assert_eq!(h.len(), 3);
        let gtx = h.id("gtx480").unwrap();
        let p = h.device_params(gtx).unwrap();
        assert_eq!(p.compute_units, 15);
        assert_eq!(p.simd_width, 32);
        assert!((p.peak_sp_gflops() - 1344.96).abs() < 0.1);
        assert_eq!(p.pcie_gbs, 8.0, "inherited from gpu level");
        // parallelism list inherited from gpu (gtx480 defines none).
        assert_eq!(p.par_units.len(), 2);
        assert_eq!(p.par_units[0].name, "blocks");
    }

    #[test]
    fn memory_attributes_parse() {
        let h = parse(SMALL).unwrap();
        let eff = h.effective_params(h.id("gtx480").unwrap());
        let local = eff.mem_space("local").unwrap();
        assert_eq!(local.size_kb, Some(48));
        assert_eq!(local.latency_cycles, Some(4));
        let global = eff.mem_space("global").unwrap();
        assert_eq!(global.latency_cycles, Some(400));
        assert_eq!(global.bandwidth_gbs, None);
    }

    #[test]
    fn comments_and_underscored_numbers() {
        let src = "
            # hash comment
            hardware root {
                device { mem_bandwidth_gbs 1_000; } // eol comment
            }
        ";
        let h = parse(src).unwrap();
        assert_eq!(
            h.effective_params(h.id("root").unwrap()).mem_bandwidth_gbs,
            Some(1000.0)
        );
    }

    #[test]
    fn error_unknown_parent() {
        let err = parse("hardware a extends nope { }").unwrap_err();
        assert!(err.message.contains("unknown level"), "{err}");
    }

    #[test]
    fn error_duplicate_level() {
        let err =
            parse("hardware a { } hardware b extends a { } hardware b extends a { }").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn error_unknown_section_has_line() {
        let err = parse("hardware a {\n  bogus { }\n}").unwrap_err();
        assert!(err.message.contains("unknown section"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_missing_semicolon() {
        let err = parse("hardware a { device { clock_ghz 1.0 } }").unwrap_err();
        assert!(err.message.contains("Semi"), "{err}");
    }

    #[test]
    fn error_second_root() {
        let err = parse("hardware a { } hardware b { }").unwrap_err();
        assert!(err.message.contains("root"), "{err}");
    }

    #[test]
    fn error_empty_source() {
        assert!(parse("  // nothing\n").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "{".repeat(100_000);
        for src in [
            format!("hardware a {deep}"),
            format!("hardware a {{ parallelism {deep}"),
            format!("hardware a {{ device {deep}"),
            deep,
        ] {
            assert!(parse(&src).is_err());
        }
    }

    #[test]
    fn error_unterminated_block() {
        for src in [
            "hardware a {",
            "hardware a { parallelism { unit threads;",
            "hardware a { memory { space global latency_cycles 4",
            "hardware a { device { clock_ghz 1.0; }",
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.message.contains("end of input"), "{src}: {err}");
        }
    }

    #[test]
    fn error_negative_or_huge_max() {
        for max in ["-4", "0", "2.5", "4294967296", "1e300", "1e999"] {
            let src = format!("hardware a {{ parallelism {{ unit threads max {max}; }} }}");
            assert!(parse(&src).is_err(), "max {max}");
        }
        let h = parse("hardware a { parallelism { unit threads max 4294967295; } }").unwrap();
        let units = h.effective_params(h.id("a").unwrap()).par_units;
        assert_eq!(units[0].max, Some(u64::from(u32::MAX)));
    }

    #[test]
    fn error_bad_char() {
        let err = parse("hardware a { device { clock_ghz @; } }").unwrap_err();
        assert!(err.message.contains("unexpected character"), "{err}");
    }
}
