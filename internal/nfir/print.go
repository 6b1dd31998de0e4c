package nfir

import (
	"fmt"
	"strings"
)

// String renders the program as readable pseudocode, in the style of the
// paper's Algorithm 1 listings. It is meant for documentation and
// debugging output (cmd/bolt -paths, DESIGN.md listings).
func (p *Program) String() string {
	var b strings.Builder
	if p.Source != "" {
		fmt.Fprintf(&b, "nf %s(ports=%d, src=%s):\n", p.Name, p.NumPorts, p.Source)
	} else {
		fmt.Fprintf(&b, "nf %s(ports=%d):\n", p.Name, p.NumPorts)
	}
	printStmts(&b, p.body, 1)
	return b.String()
}

func printStmts(b *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case Assign:
			fmt.Fprintf(b, "%s%s = %s\n", indent, x.Dst, ExprString(x.E))
		case If:
			fmt.Fprintf(b, "%sif %s:\n", indent, ExprString(x.Cond))
			printStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%selse:\n", indent)
				printStmts(b, x.Else, depth+1)
			}
		case While:
			fmt.Fprintf(b, "%swhile %s (max %d):\n", indent, ExprString(x.Cond), x.MaxIter)
			printStmts(b, x.Body, depth+1)
		case Call:
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = ExprString(a)
			}
			call := fmt.Sprintf("%s.%s(%s)", x.DS, x.Method, strings.Join(args, ", "))
			if len(x.Dsts) > 0 {
				fmt.Fprintf(b, "%s%s = %s\n", indent, strings.Join(x.Dsts, ", "), call)
			} else {
				fmt.Fprintf(b, "%s%s\n", indent, call)
			}
		case PktStore:
			fmt.Fprintf(b, "%spkt[%s:%d] = %s\n", indent, ExprString(x.Off), x.Size, ExprString(x.Val))
		case MemStore:
			fmt.Fprintf(b, "%smem[%s:%d] = %s\n", indent, ExprString(x.Addr), x.Size, ExprString(x.Val))
		case Forward:
			fmt.Fprintf(b, "%sFORWARD(%s)\n", indent, ExprString(x.Port))
		case DropStmt:
			fmt.Fprintf(b, "%sDROP\n", indent)
		default:
			fmt.Fprintf(b, "%s<unknown %T>\n", indent, s)
		}
	}
}

// ExprString renders an IR expression.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case Const:
		if x.V > 255 {
			return fmt.Sprintf("%#x", x.V)
		}
		return fmt.Sprintf("%d", x.V)
	case Local:
		return x.Name
	case Now:
		return "now()"
	case InPort:
		return "in_port()"
	case PktLen:
		return "pkt_len()"
	case Not:
		return "!" + ExprString(x.X)
	case PktLoad:
		return fmt.Sprintf("pkt[%s:%d]", ExprString(x.Off), x.Size)
	case MemLoad:
		return fmt.Sprintf("mem[%s:%d]", ExprString(x.Addr), x.Size)
	case Bin:
		return "(" + ExprString(x.L) + " " + x.Op.String() + " " + ExprString(x.R) + ")"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
