package graph

import "fmt"

// LineGraph returns the line graph L(g): one vertex per undirected edge
// of g, with two line-graph vertices adjacent when the corresponding
// edges of g share an endpoint. Vertex i of L(g) corresponds to edge i
// of g.EdgeList() (canonical order).
//
// The paper uses the line graph to prove Lemma 5.1 — greedy maximal
// matching on g behaves exactly like greedy MIS on L(g) — while warning
// that materializing L(g) can be asymptotically larger than g (it has
// sum-of-degrees-squared size). This implementation therefore exists for
// testing and for small inputs; the efficient matching algorithms never
// build it.
func LineGraph(g *Graph) (*Graph, EdgeList) {
	el := g.EdgeList()
	m := el.NumEdges()
	inc := BuildIncidence(el)
	var lineEdges []Edge
	// Two edges are adjacent iff they co-occur in some vertex's incident
	// list; enumerate unordered pairs within each list.
	for v := 0; v < el.N; v++ {
		ids := inc.Incident(Vertex(v))
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if a > b {
					a, b = b, a
				}
				lineEdges = append(lineEdges, Edge{U: a, V: b})
			}
		}
	}
	lg, err := FromEdges(m, lineEdges)
	if err != nil {
		panic(fmt.Sprintf("graph: internal error building line graph: %v", err))
	}
	return lg, el
}
