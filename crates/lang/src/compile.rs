//! Compiling lifted supercombinators into graph templates.

use std::collections::HashMap;

use dgr_graph::{
    GraphError, GraphStore, NodeLabel, Template, TemplateNode, TemplateRef, Value, VertexId,
};
use dgr_reduction::{TemplateId, TemplateStore};

use crate::error::LangError;
use crate::lift::{lift, LExpr, Sc};
use crate::parser::parse;

/// A compiled program: its templates and the entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The supercombinator templates (one per lifted function, plus
    /// `main`).
    pub templates: TemplateStore,
    /// The zero-arity entry supercombinator.
    pub main: TemplateId,
}

impl CompiledProgram {
    /// Installs the program into a graph: allocates the root application
    /// of `main` and returns the root vertex (the caller should
    /// `set_root` it).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Compile`] if the store cannot supply vertices
    /// (the store is grown automatically, so this only happens on
    /// pathological inputs).
    pub fn install(&self, g: &mut GraphStore) -> Result<VertexId, LangError> {
        if g.free_count() < 2 {
            g.grow(64);
        }
        let to_compile_err = |e: GraphError| LangError::Compile {
            message: e.to_string(),
        };
        let f = g
            .alloc(NodeLabel::Lit(Value::function(self.main, Vec::new())))
            .map_err(to_compile_err)?;
        let app = g.alloc(NodeLabel::Apply).map_err(to_compile_err)?;
        g.connect(app, f);
        Ok(app)
    }
}

/// Parses, lifts and compiles a program.
///
/// # Errors
///
/// Returns a [`LangError`] for any front-end problem.
pub fn compile_program(src: &str) -> Result<CompiledProgram, LangError> {
    let ast = parse(src)?;
    let lifted = lift(&ast)?;
    let mut templates = TemplateStore::new();
    // Supercombinator ids must equal template ids: register in order.
    for sc in &lifted.scs {
        let tpl = compile_sc(sc)?;
        templates.register(tpl);
    }
    Ok(CompiledProgram {
        templates,
        main: lifted.main as TemplateId,
    })
}

struct ScCompiler<'a> {
    nodes: Vec<TemplateNode>,
    env: HashMap<String, TemplateRef>,
    sc: &'a Sc,
}

fn compile_sc(sc: &Sc) -> Result<Template, LangError> {
    let mut c = ScCompiler {
        nodes: vec![TemplateNode::new(NodeLabel::Hole, vec![])], // root slot
        env: sc
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), TemplateRef::Param(i)))
            .collect(),
        sc,
    };
    c.compile_into(&sc.body, 0)?;
    Template::new(sc.name.clone(), sc.params.len(), c.nodes).map_err(|e| LangError::Compile {
        message: format!("{}: {e}", sc.name),
    })
}

impl ScCompiler<'_> {
    fn push(&mut self, node: TemplateNode) -> TemplateRef {
        self.nodes.push(node);
        TemplateRef::Local(self.nodes.len() - 1)
    }

    fn lookup(&self, name: &str) -> Result<TemplateRef, LangError> {
        self.env
            .get(name)
            .copied()
            .ok_or_else(|| LangError::Compile {
                message: format!("{}: `{name}` escaped lifting", self.sc.name),
            })
    }

    /// Compiles `e`, returning a reference to its node (or to the
    /// parameter/local it aliases).
    fn compile(&mut self, e: &LExpr) -> Result<TemplateRef, LangError> {
        Ok(match e {
            LExpr::Int(n) => self.push(TemplateNode::new(NodeLabel::lit_int(*n), vec![])),
            LExpr::Bool(b) => self.push(TemplateNode::new(NodeLabel::lit_bool(*b), vec![])),
            LExpr::Nil => self.push(TemplateNode::new(NodeLabel::Lit(Value::Nil), vec![])),
            LExpr::ScRef(id) => self.push(TemplateNode::new(
                NodeLabel::Lit(Value::function(*id as TemplateId, Vec::new())),
                vec![],
            )),
            LExpr::Var(x) => self.lookup(x)?,
            LExpr::Prim(op, args) => {
                let refs = args
                    .iter()
                    .map(|a| self.compile(a))
                    .collect::<Result<Vec<_>, _>>()?;
                self.push(TemplateNode::new(NodeLabel::Prim(*op), refs))
            }
            LExpr::Cons(h, t) => {
                let h = self.compile(h)?;
                let t = self.compile(t)?;
                self.push(TemplateNode::new(NodeLabel::Cons, vec![h, t]))
            }
            LExpr::If(p, t, e2) => {
                let p = self.compile(p)?;
                let t = self.compile(t)?;
                let e2 = self.compile(e2)?;
                self.push(TemplateNode::new(NodeLabel::If, vec![p, t, e2]))
            }
            LExpr::App(f, args) => {
                let f = self.compile(f)?;
                let mut refs = vec![f];
                for a in args {
                    refs.push(self.compile(a)?);
                }
                self.push(TemplateNode::new(NodeLabel::Apply, refs))
            }
            LExpr::LetData { rec, binds, body } => {
                if *rec {
                    // Reserve a slot per binding so cyclic references
                    // resolve, then fill each slot in place.
                    let slots: Vec<usize> = binds
                        .iter()
                        .map(|_| {
                            self.nodes.push(TemplateNode::new(NodeLabel::Hole, vec![]));
                            self.nodes.len() - 1
                        })
                        .collect();
                    for ((name, _), &slot) in binds.iter().zip(&slots) {
                        self.env.insert(name.clone(), TemplateRef::Local(slot));
                    }
                    for ((_, expr), &slot) in binds.iter().zip(&slots) {
                        self.compile_into(expr, slot)?;
                    }
                } else {
                    for (name, expr) in binds {
                        let r = self.compile(expr)?;
                        self.env.insert(name.clone(), r);
                    }
                }
                return self.compile(body);
            }
        })
    }

    /// Compiles `e` *into* node `slot` (for the template root and for
    /// recursive data bindings). Reference-like expressions become
    /// indirections.
    fn compile_into(&mut self, e: &LExpr, slot: usize) -> Result<(), LangError> {
        match e {
            LExpr::Int(n) => self.nodes[slot] = TemplateNode::new(NodeLabel::lit_int(*n), vec![]),
            LExpr::Bool(b) => self.nodes[slot] = TemplateNode::new(NodeLabel::lit_bool(*b), vec![]),
            LExpr::Nil => self.nodes[slot] = TemplateNode::new(NodeLabel::Lit(Value::Nil), vec![]),
            LExpr::ScRef(id) => {
                self.nodes[slot] = TemplateNode::new(
                    NodeLabel::Lit(Value::function(*id as TemplateId, Vec::new())),
                    vec![],
                )
            }
            LExpr::Var(x) => {
                let r = self.lookup(x)?;
                self.nodes[slot] = TemplateNode::new(NodeLabel::Ind, vec![r]);
            }
            LExpr::Prim(op, args) => {
                let refs = args
                    .iter()
                    .map(|a| self.compile(a))
                    .collect::<Result<Vec<_>, _>>()?;
                self.nodes[slot] = TemplateNode::new(NodeLabel::Prim(*op), refs);
            }
            LExpr::Cons(h, t) => {
                let h = self.compile(h)?;
                let t = self.compile(t)?;
                self.nodes[slot] = TemplateNode::new(NodeLabel::Cons, vec![h, t]);
            }
            LExpr::If(p, t, e2) => {
                let p = self.compile(p)?;
                let t = self.compile(t)?;
                let e2 = self.compile(e2)?;
                self.nodes[slot] = TemplateNode::new(NodeLabel::If, vec![p, t, e2]);
            }
            LExpr::App(f, args) => {
                let f = self.compile(f)?;
                let mut refs = vec![f];
                for a in args {
                    refs.push(self.compile(a)?);
                }
                self.nodes[slot] = TemplateNode::new(NodeLabel::Apply, refs);
            }
            LExpr::LetData { .. } => {
                let r = self.compile(e)?;
                self.nodes[slot] = TemplateNode::new(NodeLabel::Ind, vec![r]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_arithmetic() {
        let p = compile_program("1 + 2 * 3").unwrap();
        assert_eq!(p.templates.len(), 1);
        let main = p.templates.get(p.main);
        assert_eq!(main.arity(), 0);
        assert_eq!(main.name(), "main");
    }

    #[test]
    fn sharing_via_let() {
        // `let x = big in x + x` must reference one x node twice.
        let p = compile_program("let x = 2 * 3 in x + x").unwrap();
        let main = p.templates.get(p.main);
        // The let body compiles behind a root indirection; the + node's
        // two args must be the same local reference.
        let add = main
            .nodes()
            .iter()
            .find(|n| n.label == NodeLabel::Prim(dgr_graph::PrimOp::Add))
            .expect("one + node");
        assert_eq!(add.args[0], add.args[1]);
    }

    #[test]
    fn recursive_data_compiles_to_cycle() {
        let p = compile_program("let rec ones = cons 1 ones in ones").unwrap();
        let main = p.templates.get(p.main);
        // Some node's args reference itself (directly or via the root
        // indirection).
        let cyclic = main
            .nodes()
            .iter()
            .enumerate()
            .any(|(i, n)| n.args.contains(&TemplateRef::Local(i)));
        assert!(cyclic, "nodes: {:?}", main.nodes());
    }

    #[test]
    fn mutually_recursive_data() {
        let p =
            compile_program("let rec xs = cons 1 ys; ys = cons 2 xs in head (tail xs)").unwrap();
        assert_eq!(p.templates.len(), 1);
    }

    #[test]
    fn install_builds_root_application() {
        let p = compile_program("41 + 1").unwrap();
        let mut g = GraphStore::new();
        let root = p.install(&mut g).unwrap();
        assert_eq!(g.vertex(root).label, NodeLabel::Apply);
        assert_eq!(g.vertex(root).args().len(), 1);
    }

    #[test]
    fn unknown_variable_fails_compilation() {
        assert!(compile_program("zzz 1").is_err());
    }
}
