package snapstore_test

import (
	"fmt"

	"repro/internal/san"
	"repro/internal/snapstore"
)

// ExampleStore packs a three-day evolution into a timeline and serves
// reconstructed snapshots through the Store's LRU cache.
func ExampleStore() {
	// Day 1: two users, one follow.
	g := san.New(0, 0, 0)
	alice := g.AddSocialNode()
	bob := g.AddSocialNode()
	g.AddSocialEdge(alice, bob)

	b := snapstore.NewLive()
	b.Append(g) // day 1 is stored as a full snapshot

	// Day 2: the follow is reciprocated and a school attribute appears.
	g.AddSocialEdge(bob, alice)
	school := g.AddAttrNode("MIT", san.School)
	g.AddAttrEdge(alice, school)
	b.Append(g) // later days are stored as deltas

	// Day 3: a newcomer joins the school.
	carol := g.AddSocialNode()
	g.AddSocialEdge(carol, alice)
	g.AddAttrEdge(carol, school)
	b.Append(g)

	store := snapstore.NewStore(b.Timeline(), 2)
	for day := 0; day < 3; day++ {
		snap, err := store.Snapshot(day) // read-only; cached in the LRU
		if err != nil {
			fmt.Println("reconstruct:", err)
			return
		}
		st := snap.Stats()
		fmt.Printf("day %d: %d users, %d follows, %d attribute links\n",
			day+1, st.SocialNodes, st.SocialLinks, st.AttrLinks)
	}
	st := store.Stats()
	fmt.Printf("cache: %d misses, %d hits\n", st.Misses, st.Hits)
	// Output:
	// day 1: 2 users, 1 follows, 0 attribute links
	// day 2: 2 users, 2 follows, 1 attribute links
	// day 3: 3 users, 3 follows, 2 attribute links
	// cache: 3 misses, 0 hits
}
