//! Registry of supercombinator templates.

use dgr_graph::Template;

/// Identifier of a registered template (also the payload of
/// [`Value::Fn`](dgr_graph::Value::Fn)).
pub type TemplateId = u32;

/// The program's supercombinators, shared (read-only) by every PE.
///
/// In the paper's machine each PE holds the program code; templates are
/// immutable once reduction starts, so sharing them without locks is
/// faithful.
///
/// # Example
///
/// ```
/// use dgr_reduction::TemplateStore;
/// use dgr_graph::{NodeLabel, Template, TemplateNode, TemplateRef};
///
/// let mut store = TemplateStore::new();
/// let id = store.register(
///     Template::new("id", 1, vec![TemplateNode::new(
///         NodeLabel::Ind,
///         vec![TemplateRef::Param(0)],
///     )]).unwrap(),
/// );
/// assert_eq!(store.arity(id), 1);
/// assert_eq!(store.get(id).name(), "id");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateStore {
    templates: Vec<Template>,
}

impl TemplateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TemplateStore::default()
    }

    /// Registers a template, returning its id.
    pub fn register(&mut self, tpl: Template) -> TemplateId {
        self.templates.push(tpl);
        (self.templates.len() - 1) as TemplateId
    }

    /// Looks up a template.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`TemplateStore::register`].
    pub fn get(&self, id: TemplateId) -> &Template {
        &self.templates[id as usize]
    }

    /// Fallible lookup.
    pub fn try_get(&self, id: TemplateId) -> Option<&Template> {
        self.templates.get(id as usize)
    }

    /// The arity of a registered template.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn arity(&self, id: TemplateId) -> usize {
        self.get(id).arity()
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Returns `true` if no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Looks a template up by name (linear scan; diagnostics only).
    pub fn find(&self, name: &str) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| t.name() == name)
            .map(|i| i as TemplateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{NodeLabel, TemplateNode, TemplateRef};

    fn tpl(name: &str, arity: usize) -> Template {
        let args = (0..arity).map(TemplateRef::Param).collect();
        Template::new(name, arity, vec![TemplateNode::new(NodeLabel::If, args)]).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut s = TemplateStore::new();
        assert!(s.is_empty());
        let a = s.register(tpl("a", 1));
        let b = s.register(tpl("b", 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(a), 1);
        assert_eq!(s.arity(b), 3);
        assert_eq!(s.find("b"), Some(b));
        assert_eq!(s.find("zzz"), None);
        assert!(s.try_get(99).is_none());
    }
}
