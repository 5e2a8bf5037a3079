// Package ast defines the abstract syntax of SIL programs (Figure 1 of the
// paper), extended with the parallel statement "s1 || s2 || …" that the
// parallelizer produces (Figure 8).
package ast

import (
	"repro/internal/sil/token"
)

// Type is a SIL type: the language has exactly two (§3.2).
type Type uint8

// SIL types; VoidT is the "type" of procedures.
const (
	VoidT Type = iota
	IntT
	HandleT
)

func (t Type) String() string {
	switch t {
	case IntT:
		return "int"
	case HandleT:
		return "handle"
	case VoidT:
		return "void"
	}
	return "?"
}

// Field selects a component of a node: left and right are the handle
// fields, value is the scalar field.
type Field uint8

// Node fields.
const (
	Left Field = iota
	Right
	Value
)

func (f Field) String() string {
	switch f {
	case Left:
		return "left"
	case Right:
		return "right"
	case Value:
		return "value"
	}
	return "?"
}

// Node is any AST node.
type Node interface {
	Pos() token.Pos
}

// Program is a SIL compilation unit: a parameterless main plus auxiliary
// procedures and functions.
type Program struct {
	Name    string
	Decls   []*ProcDecl
	NamePos token.Pos
}

// Pos implements Node.
func (p *Program) Pos() token.Pos { return p.NamePos }

// Proc returns the declaration named name, or nil.
func (p *Program) Proc(name string) *ProcDecl {
	for _, d := range p.Decls {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Callees returns the static call graph of a normalized program: for each
// declaration, the distinct names it calls — call statements plus function
// calls on an assignment's right-hand side — in first-occurrence order,
// keeping only procedures the program declares. SIL has no indirect calls,
// so this graph is exact.
func Callees(prog *Program) map[string][]string {
	out := make(map[string][]string, len(prog.Decls))
	for _, d := range prog.Decls {
		seen := map[string]bool{}
		var walk func(s Stmt)
		walk = func(s Stmt) {
			name := ""
			switch s := s.(type) {
			case *Block:
				for _, st := range s.Stmts {
					walk(st)
				}
			case *Par:
				for _, st := range s.Branches {
					walk(st)
				}
			case *If:
				walk(s.Then)
				walk(s.Else)
			case *While:
				walk(s.Body)
			case *CallStmt:
				name = s.Name
			case *Assign:
				if c, ok := s.Rhs.(*CallExpr); ok {
					name = c.Name
				}
			}
			if name != "" && !seen[name] && prog.Proc(name) != nil {
				seen[name] = true
				out[d.Name] = append(out[d.Name], name)
			}
		}
		walk(d.Body)
	}
	return out
}

// VarDecl declares one parameter or local.
type VarDecl struct {
	Name    string
	Type    Type
	NamePos token.Pos
}

// Pos implements Node.
func (v *VarDecl) Pos() token.Pos { return v.NamePos }

// ProcDecl is a procedure or function declaration. For functions, Result is
// IntT or HandleT and ReturnVar names the returned local/parameter (the
// paper's "return ( <return_id> )" form); for procedures Result is VoidT.
type ProcDecl struct {
	Name      string
	Params    []*VarDecl
	Locals    []*VarDecl
	Body      *Block
	Result    Type
	ReturnVar string
	NamePos   token.Pos
}

// Pos implements Node.
func (d *ProcDecl) Pos() token.Pos { return d.NamePos }

// IsFunction reports whether the declaration is a function.
func (d *ProcDecl) IsFunction() bool { return d.Result != VoidT }

// Lookup resolves a name against params then locals.
func (d *ProcDecl) Lookup(name string) *VarDecl {
	for _, v := range d.Params {
		if v.Name == name {
			return v
		}
	}
	for _, v := range d.Locals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// ---------------------------------------------------------------- statements

// Stmt is any statement.
type Stmt interface {
	Node
	stmt()
}

// Block is "begin s1; …; sn end".
type Block struct {
	Stmts    []Stmt
	BeginPos token.Pos
}

func (b *Block) Pos() token.Pos { return b.BeginPos }
func (*Block) stmt()            {}

// Assign is the general assignment statement. The type checker restricts
// the legal shapes to the paper's basic statements (after normalization):
//
//	a := nil | new() | b | b.left | b.right   (handle forms)
//	x := <int expr> | a.value := <int expr>   (scalar forms)
//	a.left := b | a.right := b                (update forms)
//	x := f(args) | a := f(args)               (function-call form)
type Assign struct {
	Lhs LValue
	Rhs Expr
}

func (a *Assign) Pos() token.Pos { return a.Lhs.Pos() }
func (*Assign) stmt()            {}

// If is "if cond then s [else s]".
type If struct {
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
	IfPos token.Pos
}

func (s *If) Pos() token.Pos { return s.IfPos }
func (*If) stmt()            {}

// While is "while cond do s".
type While struct {
	Cond     Expr
	Body     Stmt
	WhilePos token.Pos
}

func (s *While) Pos() token.Pos { return s.WhilePos }
func (*While) stmt()            {}

// CallStmt is a procedure invocation.
type CallStmt struct {
	Name    string
	Args    []Expr
	NamePos token.Pos
}

func (s *CallStmt) Pos() token.Pos { return s.NamePos }
func (*CallStmt) stmt()            {}

// Par is the parallel statement "s1 || s2 || …": all branches execute
// concurrently; the construct is the target of every transformation in §5.
type Par struct {
	Branches []Stmt
}

func (s *Par) Pos() token.Pos {
	if len(s.Branches) > 0 {
		return s.Branches[0].Pos()
	}
	return token.Pos{}
}
func (*Par) stmt() {}

// ------------------------------------------------------------------- lvalues

// LValue is an assignable location.
type LValue interface {
	Node
	lvalue()
}

// VarLV is a plain variable on the left-hand side.
type VarLV struct {
	Name    string
	NamePos token.Pos
}

func (l *VarLV) Pos() token.Pos { return l.NamePos }
func (*VarLV) lvalue()          {}

// FieldLV is "a.left", "a.right" or "a.value" on the left-hand side. After
// normalization Base is always a plain variable name; the parser also
// accepts chained selectors, recorded via the Chain of intermediate fields,
// which normalization rewrites into temporaries.
type FieldLV struct {
	Base    string
	Chain   []Field // selectors applied to Base before the final one
	Field   Field
	NamePos token.Pos
}

func (l *FieldLV) Pos() token.Pos { return l.NamePos }
func (*FieldLV) lvalue()          {}

// --------------------------------------------------------------- expressions

// Expr is any expression.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	Val    int64
	ValPos token.Pos
}

func (e *IntLit) Pos() token.Pos { return e.ValPos }
func (*IntLit) expr()            {}

// VarRef references a variable of either type.
type VarRef struct {
	Name    string
	NamePos token.Pos
}

func (e *VarRef) Pos() token.Pos { return e.NamePos }
func (*VarRef) expr()            {}

// FieldRef is "a.left", "a.right" or "a.value". As with FieldLV, Chain
// holds any intermediate selectors the parser accepted; normalization
// flattens them so the analysis only ever sees one selector deep.
type FieldRef struct {
	Base    string
	Chain   []Field
	Field   Field
	NamePos token.Pos
}

func (e *FieldRef) Pos() token.Pos { return e.NamePos }
func (*FieldRef) expr()            {}

// NilLit is the handle constant nil.
type NilLit struct {
	NilPos token.Pos
}

func (e *NilLit) Pos() token.Pos { return e.NilPos }
func (*NilLit) expr()            {}

// NewExpr is the built-in allocator new().
type NewExpr struct {
	NewPos token.Pos
}

func (e *NewExpr) Pos() token.Pos { return e.NewPos }
func (*NewExpr) expr()            {}

// CallExpr is a function invocation in expression position.
type CallExpr struct {
	Name    string
	Args    []Expr
	NamePos token.Pos
}

func (e *CallExpr) Pos() token.Pos { return e.NamePos }
func (*CallExpr) expr()            {}

// Op is a unary or binary operator.
type Op uint8

// Operators.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Eq
	Neq
	Lt
	Gt
	Leq
	Geq
	And
	Or
	Not
	Neg
)

func (o Op) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Eq:
		return "="
	case Neq:
		return "<>"
	case Lt:
		return "<"
	case Gt:
		return ">"
	case Leq:
		return "<="
	case Geq:
		return ">="
	case And:
		return "and"
	case Or:
		return "or"
	case Not:
		return "not"
	case Neg:
		return "-"
	}
	return "?"
}

// Binary is "x op y".
type Binary struct {
	Op   Op
	X, Y Expr
}

func (e *Binary) Pos() token.Pos { return e.X.Pos() }
func (*Binary) expr()            {}

// Unary is "not x" or "-x".
type Unary struct {
	Op    Op
	X     Expr
	OpPos token.Pos
}

func (e *Unary) Pos() token.Pos { return e.OpPos }
func (*Unary) expr()            {}
